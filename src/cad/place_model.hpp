/// \file
/// The placement netlist model shared by every placement engine.
///
/// The multilevel engine (cad/place_multilevel.cpp), the legalizer, the
/// polish anneal and the detailed descent (cad/place.cpp) optimize the same
/// objects: clusters movable on the PLB grid, primary I/Os movable across
/// perimeter pads, and half-perimeter wirelength over the logical nets
/// connecting them. This header owns that model — the entity table, the
/// net list, the reverse index and the pad geometry — built once per
/// place() call and read by every phase. The model holds no positions and
/// prices nothing: once the placement is legal, the integer cost engine
/// (cad/place_cost.hpp), built over these entity ids and nets, is the one
/// evaluator of every move.
///
/// Determinism: construction is RNG-free and keeps a fixed entity/net
/// order (the polish's move sequence, and therefore every placement bit,
/// depends on it).
///
/// Threading: a built PlaceModel is immutable; any number of threads may
/// read one instance.
#pragma once

#include <cstdint>
#include <vector>

#include "cad/mapped.hpp"
#include "cad/pack.hpp"
#include "core/fabric.hpp"

namespace afpga::cad {

/// A movable object: a cluster or an I/O signal bound to a pad.
struct PlaceEntity {
    enum class Kind : std::uint8_t { Cluster, Pi, Po } kind;
    std::size_t index;    ///< cluster index, or index into pi/po lists
    std::size_t io_slot;  ///< index into pad_of_io (Pi/Po); SIZE_MAX for clusters
};

/// A point in placement coordinate space: PLB (x, y) sits at (x+1, y+1),
/// pads sit on the 0 / width+1 / height+1 frame around the grid.
struct PlacePt {
    double x;
    double y;
};

/// One logical connection for wirelength: driver + sinks as entity ids.
struct PlaceNet {
    std::vector<std::size_t> entities;  ///< indices into the entity table
};

/// The immutable placement problem; see the file comment.
struct PlaceModel {
    const core::ArchSpec* arch = nullptr;
    core::FabricGeometry geom;
    std::vector<PlaceEntity> entities;  ///< clusters first, then PIs, then POs
    std::vector<PlaceNet> nets;         ///< nets with >= 2 distinct entities
    std::vector<std::vector<std::size_t>> nets_of_entity;  ///< reverse index
    std::vector<std::size_t> io_entity_ids;  ///< io slot -> entity id
    std::size_t num_clusters = 0;            ///< leading entities are clusters
    std::vector<PlacePt> pad_pts;            ///< pad index -> fixed frame point

    /// Build the model (validates that the design fits the fabric; throws
    /// base::Error otherwise).
    PlaceModel(const PackedDesign& pd, const MappedDesign& md, const core::ArchSpec& a);
};

}  // namespace afpga::cad
