#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "base/check.hpp"

namespace afpga::sim {

using base::check;
using netlist::Cell;
using netlist::CellFunc;

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

Simulator::EventQueue::EventQueue() : head_(kSlots, kNil), tail_(kSlots, kNil) {}

void Simulator::EventQueue::push(const Event& ev, std::int64_t now) {
    if (ev.time - now >= kWindow) {
        far_.push(ev);
        return;
    }
    std::uint32_t idx = free_;
    if (idx != kNil) {
        free_ = pool_[idx].next;
        pool_[idx] = Node{ev, kNil};
    } else {
        idx = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(Node{ev, kNil});
    }
    const std::size_t slot = static_cast<std::size_t>(ev.time) & (kSlots - 1);
    if (head_[slot] == kNil) {
        head_[slot] = idx;
        occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    } else {
        pool_[tail_[slot]].next = idx;
    }
    tail_[slot] = idx;
    ++wheel_size_;
}

const Simulator::Event& Simulator::EventQueue::front(std::int64_t now) {
    const Event* wheel = nullptr;
    if (wheel_size_ != 0) {
        // Wheel times lie in [now, now + kWindow): the first occupied slot
        // at or after now's slot, circularly, holds the earliest of them.
        const std::size_t start = static_cast<std::size_t>(now) & (kSlots - 1);
        const std::size_t w0 = start / 64;
        std::uint64_t bits = occupied_[w0] & (~std::uint64_t{0} << (start % 64));
        std::size_t w = w0;
        for (std::size_t k = 1; bits == 0; ++k) {
            w = (w0 + k) % kWords;
            bits = occupied_[w];  // k == kWords revisits w0: only bits below start remain
        }
        front_slot_ = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        wheel = &pool_[head_[front_slot_]].ev;
    }
    if (!far_.empty()) {
        const Event& far = far_.top();
        if (wheel == nullptr || Later{}(*wheel, far)) {
            front_slot_ = kNil;
            return far;
        }
    }
    return *wheel;
}

void Simulator::EventQueue::pop_front() {
    if (front_slot_ == kNil) {
        far_.pop();
        return;
    }
    const std::size_t slot = front_slot_;
    const std::uint32_t idx = head_[slot];
    head_[slot] = pool_[idx].next;
    if (head_[slot] == kNil) occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    pool_[idx].next = free_;
    free_ = idx;
    --wheel_size_;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

Simulator::Simulator(const Netlist& nl, InitState init) : nl_(nl) {
    const Logic v0 = init == InitState::AllZero ? Logic::F : Logic::X;
    const std::size_t n_nets = nl.num_nets();
    net_value_.assign(n_nets, v0);
    transitions_.assign(n_nets, 0);
    pending_stamp_.assign(n_nets, 0);
    pending_value_.assign(n_nets, Logic::X);
    has_callback_.assign(n_nets, 0);
    callbacks_.resize(n_nets);

    cells_.reserve(nl.num_cells());
    for (std::size_t c = 0; c < nl.num_cells(); ++c) {
        const Cell& cell = nl.cell(CellId{c});
        const std::size_t arity = cell.inputs.size();
        check(arity <= 32, "Simulator: cell has more than 32 inputs");
        const bool fast_lut = cell.func == CellFunc::Lut && arity <= 6;
        cells_.push_back(CompiledCell{
            .delay_ps = cell.delay_ps.value_or(netlist::default_delay_ps(cell.func)),
            .lut_rows = fast_lut ? cell.table->bits64() : 0,
            .table = cell.table ? &*cell.table : nullptr,
            .first_pin = static_cast<std::uint32_t>(pin_cell_.size()),
            .output = static_cast<std::uint32_t>(cell.output.index()),
            .arity = static_cast<std::uint8_t>(arity),
            .x_inputs = static_cast<std::uint8_t>(v0 == Logic::X ? arity : 0),
            .func = cell.func,
            .fast_lut = fast_lut,
        });
        pin_cell_.insert(pin_cell_.end(), arity, static_cast<std::uint32_t>(c));
    }
    pin_value_.assign(pin_cell_.size(), v0);

    sink_begin_.reserve(n_nets + 1);
    sink_begin_.push_back(0);
    for (std::size_t n = 0; n < n_nets; ++n) {
        for (const netlist::PinRef& s : nl.net(NetId{n}).sinks)
            sinks_.push_back(Sink{0, cells_[s.cell.index()].first_pin + s.pin});
        sink_begin_.push_back(static_cast<std::uint32_t>(sinks_.size()));
    }
    // Groups are built by the first commit, after the caller's delays.
    net_groups_.resize(n_nets);
    groups_.push_back(SinkGroup{0, 0});
    for (std::size_t n = 0; n < n_nets; ++n) stale_nets_.push_back(static_cast<std::uint32_t>(n));

    // Settle the initial state: every cell whose output disagrees with the
    // init value fires at t=0 (e.g. inverters rise out of the all-zero state).
    for (std::size_t c = 0; c < cells_.size(); ++c) evaluate_cell(static_cast<std::uint32_t>(c));
}

Logic Simulator::value(NetId net) const {
    check(net.valid() && net.index() < net_value_.size(), "Simulator::value: bad net");
    return net_value_[net.index()];
}

Logic Simulator::value(const std::string& net_name) const {
    const NetId id = nl_.find_net(net_name);
    check(id.valid(), "Simulator::value: unknown net " + net_name);
    return value(id);
}

void Simulator::push(std::int64_t at, std::uint32_t target, Logic v, Kind kind) {
    queue_.push(Event{at, seq_++, target, v, kind}, now_);
}

void Simulator::schedule_pi(NetId pi, Logic v, std::int64_t delay_ps) {
    check(pi.valid() && nl_.net(pi).is_primary_input, "schedule_pi: not a primary input");
    check(delay_ps >= 0, "schedule_pi: negative delay");
    // Transport semantics: successive environment edges all apply.
    push(now_ + delay_ps, pi.value(), v, Kind::Commit);
}

void Simulator::set_sink_delay(NetId net, std::size_t sink_idx, std::int64_t delay_ps) {
    check(net.valid() && net.index() < net_value_.size(), "set_sink_delay: bad net");
    const std::size_t first = sink_begin_[net.index()];
    check(sink_idx < sink_begin_[net.index() + 1] - first, "set_sink_delay: bad sink");
    check(delay_ps >= 0, "set_sink_delay: negative delay");
    sinks_[first + sink_idx].delay_ps = delay_ps;
    stale_nets_.push_back(static_cast<std::uint32_t>(net.index()));
}

void Simulator::set_net_delay(NetId net, std::int64_t delay_ps) {
    check(net.valid() && net.index() < net_value_.size(), "set_net_delay: bad net");
    check(delay_ps >= 0, "set_net_delay: negative delay");
    for (std::size_t s = sink_begin_[net.index()]; s < sink_begin_[net.index() + 1]; ++s)
        sinks_[s].delay_ps = delay_ps;
    stale_nets_.push_back(static_cast<std::uint32_t>(net.index()));
}

void Simulator::regroup() {
    groups_.pop_back();  // the sentinel
    if (queue_.empty()) {
        // No event names a group: rebuild every net, dropping the groups
        // that earlier regroups left behind.
        groups_.clear();
        group_pins_.clear();
        for (std::uint32_t n = 0; n < net_groups_.size(); ++n) append_groups(n);
    } else {
        std::ranges::sort(stale_nets_);
        const auto dup = std::ranges::unique(stale_nets_);
        stale_nets_.erase(dup.begin(), dup.end());
        for (const std::uint32_t n : stale_nets_) append_groups(n);
    }
    stale_nets_.clear();
    groups_.push_back(SinkGroup{0, static_cast<std::uint32_t>(group_pins_.size())});
}

void Simulator::append_groups(std::uint32_t net) {
    // Sorting (delay, sink index) pairs is a stable sort by delay: each
    // group keeps its pins in sink order.
    sorted_sinks_.clear();
    for (std::uint32_t s = sink_begin_[net]; s < sink_begin_[net + 1]; ++s)
        sorted_sinks_.emplace_back(sinks_[s].delay_ps, s);
    std::ranges::sort(sorted_sinks_);
    GroupRange& range = net_groups_[net];
    range.begin = static_cast<std::uint32_t>(groups_.size());
    for (const auto& [delay_ps, s] : sorted_sinks_) {
        if (groups_.size() == range.begin || groups_.back().delay_ps != delay_ps)
            groups_.push_back(SinkGroup{delay_ps, static_cast<std::uint32_t>(group_pins_.size())});
        group_pins_.push_back(sinks_[s].pin);
    }
    range.end = static_cast<std::uint32_t>(groups_.size());
}

void Simulator::schedule_commit(std::uint32_t net, Logic v, std::int64_t at) {
    if (pending_stamp_[net] != 0) {
        if (pending_value_[net] == v) return;     // already on its way
        pending_stamp_[net] = 0;                  // inertial cancellation
    }
    if (v == net_value_[net]) return;             // nothing to do
    pending_stamp_[net] = seq_ + 1;               // the stamp of the event pushed next
    pending_value_[net] = v;
    push(at, net, v, Kind::InertialCommit);
}

void Simulator::evaluate_cell(std::uint32_t cell) {
    const CompiledCell& c = cells_[cell];
    Logic out;
    if (c.fast_lut && c.x_inputs == 0) {
        out = netlist::from_bool(((c.lut_rows >> c.known_row) & 1u) != 0);
    } else {
        const std::span<const Logic> pins(pin_value_.data() + c.first_pin, c.arity);
        out = netlist::eval_cell(c.func, pins, net_value_[c.output], c.table);
    }
    if (c.func == CellFunc::Delay) {
        // Pure transport: every input edge is forwarded unconditionally (a
        // same-value commit is a no-op at delivery time).
        push(now_ + c.delay_ps, c.output, out, Kind::Commit);
        return;
    }
    schedule_commit(c.output, out, now_ + c.delay_ps);
}

void Simulator::commit_net(std::uint32_t net, Logic v) {
    if (net_value_[net] == v) return;
    if (!stale_nets_.empty()) regroup();
    net_value_[net] = v;
    ++transitions_[net];
    // One event per group. The pushes take consecutive seqs, so sinks with
    // one delay are adjacent in (time, seq) order wherever they sit in sink
    // order: one event walking them replays the per-pin order exactly.
    const GroupRange range = net_groups_[net];
    for (std::uint32_t g = range.begin; g < range.end; ++g)
        push(now_ + groups_[g].delay_ps, g, v, Kind::PinUpdate);
    if (has_callback_[net] != 0)
        for (const auto& cb : callbacks_[net]) cb(v, now_);
}

void Simulator::update_pin(std::uint32_t pin, Logic v) {
    const Logic old = pin_value_[pin];
    if (old == v) return;
    pin_value_[pin] = v;
    const std::uint32_t cell = pin_cell_[pin];
    CompiledCell& c = cells_[cell];
    const std::uint32_t bit = std::uint32_t{1} << (pin - c.first_pin);
    if (old == Logic::X) --c.x_inputs;
    if (v == Logic::X) ++c.x_inputs;
    c.known_row = v == Logic::T ? c.known_row | bit : c.known_row & ~bit;
    evaluate_cell(cell);
}

RunResult Simulator::run(std::int64_t max_time_ps) {
    return run_until(NetId::invalid(), Logic::X, max_time_ps);
}

RunResult Simulator::run_until(NetId net, Logic v, std::int64_t max_time_ps) {
    RunResult res;
    const bool has_condition = net.valid();
    if (has_condition && net_value_[net.index()] == v) {
        res.end_time_ps = now_;
        return res;
    }
    std::uint64_t processed = 0;
    while (!queue_.empty()) {
        const Event ev = queue_.front(now_);
        if (ev.time > max_time_ps) break;
        if (processed >= event_budget_) {
            res.budget_exceeded = true;
            break;
        }
        queue_.pop_front();
        now_ = ev.time;
        ++processed;
        ++total_events_;
        if (ev.kind == Kind::PinUpdate) {
            // Groups change only in commit_net, never while one is walked.
            const std::uint32_t end = groups_[ev.target + 1].first;
            for (std::uint32_t p = groups_[ev.target].first; p < end; ++p)
                update_pin(group_pins_[p], ev.value);
            continue;
        }
        if (ev.kind == Kind::InertialCommit) {
            if (pending_stamp_[ev.target] != ev.seq + 1) continue;  // cancelled
            pending_stamp_[ev.target] = 0;
        }
        commit_net(ev.target, ev.value);
        if (has_condition && net_value_[net.index()] == v) {
            res.end_time_ps = now_;
            res.events = processed;
            return res;
        }
    }
    res.end_time_ps = now_;
    res.events = processed;
    res.quiescent = queue_.empty();
    return res;
}

void Simulator::on_commit(NetId net, std::function<void(Logic, std::int64_t)> cb) {
    check(net.valid() && net.index() < callbacks_.size(), "on_commit: bad net");
    callbacks_[net.index()].push_back(std::move(cb));
    has_callback_[net.index()] = 1;
}

std::uint64_t Simulator::transitions(NetId net) const {
    check(net.valid() && net.index() < transitions_.size(), "transitions: bad net");
    return transitions_[net.index()];
}

}  // namespace afpga::sim
