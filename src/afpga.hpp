// Umbrella header: the whole public API of the multi-style asynchronous
// FPGA library. Include piecemeal headers in translation units that care
// about compile time; include this when prototyping.
#pragma once

#include "base/bitvector.hpp"   // IWYU pragma: export
#include "base/check.hpp"       // IWYU pragma: export
#include "base/ids.hpp"         // IWYU pragma: export
#include "base/rng.hpp"         // IWYU pragma: export
#include "base/strings.hpp"     // IWYU pragma: export
#include "base/table.hpp"       // IWYU pragma: export
#include "base/threadpool.hpp"  // IWYU pragma: export

#include "netlist/analyze.hpp"  // IWYU pragma: export
#include "netlist/cells.hpp"    // IWYU pragma: export
#include "netlist/netlist.hpp"  // IWYU pragma: export
#include "netlist/truthtable.hpp"  // IWYU pragma: export

#include "asynclib/adders.hpp"         // IWYU pragma: export
#include "asynclib/dualrail.hpp"       // IWYU pragma: export
#include "asynclib/fifos.hpp"          // IWYU pragma: export
#include "asynclib/micropipeline.hpp"  // IWYU pragma: export
#include "asynclib/oneofn.hpp"         // IWYU pragma: export
#include "asynclib/styles.hpp"         // IWYU pragma: export

#include "sim/channels.hpp"   // IWYU pragma: export
#include "sim/monitors.hpp"   // IWYU pragma: export
#include "sim/simulator.hpp"  // IWYU pragma: export
#include "sim/testbench.hpp"  // IWYU pragma: export
#include "sim/vcd.hpp"        // IWYU pragma: export

#include "core/archspec.hpp"   // IWYU pragma: export
#include "core/bitstream.hpp"  // IWYU pragma: export
#include "core/elaborate.hpp"  // IWYU pragma: export
#include "core/fabric.hpp"     // IWYU pragma: export
#include "core/le.hpp"         // IWYU pragma: export
#include "core/plb.hpp"        // IWYU pragma: export
#include "core/rrgraph.hpp"    // IWYU pragma: export

#include "cad/flow.hpp"     // IWYU pragma: export
#include "cad/flow_service.hpp"  // IWYU pragma: export
#include "cad/mapped.hpp"   // IWYU pragma: export
#include "cad/pack.hpp"     // IWYU pragma: export
#include "cad/place.hpp"    // IWYU pragma: export
#include "cad/route.hpp"    // IWYU pragma: export
#include "cad/techmap.hpp"  // IWYU pragma: export

#include "eval/baseline.hpp"  // IWYU pragma: export
#include "eval/metrics.hpp"   // IWYU pragma: export
