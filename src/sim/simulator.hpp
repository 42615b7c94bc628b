// Event-driven three-valued gate-level simulator.
//
// Semantics:
//  - every net carries a Logic value (0/1/X); initial state is configurable
//    (all-zero models the post-reset RTZ idle state asynchronous 4-phase
//    circuits start from);
//  - each cell has an intrinsic inertial delay (override or library default);
//    a re-evaluation that contradicts a pending output transition cancels it
//    (classic inertial-delay glitch suppression), except for DELAY cells
//    which are pure transport delays (every edge propagates — exactly what a
//    programmable delay line does);
//  - per-sink extra wire delays model routing: a net commit is seen by each
//    sink pin after its own annotated delay (this is how post-route timing
//    and deliberately broken isochronic forks are injected). The sinks of a
//    net that share a delay form one sink group, and a commit queues one
//    event per group, which updates the group's pins in sink order;
//  - primary inputs change only via schedule_pi();
//  - observers can register commit callbacks per net (channel sources/sinks,
//    protocol monitors, VCD tracing are all built on this hook).
//
// The constructor compiles the netlist into flat per-cell and per-sink
// arrays (delays, LUT words, fanout CSR), so the netlist must not change
// while a Simulator over it is alive.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace afpga::sim {

using netlist::CellId;
using netlist::Logic;
using netlist::NetId;
using netlist::Netlist;

/// Initial net values at time 0.
enum class InitState : std::uint8_t {
    AllZero,  ///< post-reset idle (the usual choice for 4-phase RTZ circuits)
    AllX,     ///< fully unknown (used to study initialisation behaviour)
};

/// Simulation outcome of a run_* call.
struct RunResult {
    std::int64_t end_time_ps = 0;   ///< time of the last processed event
    /// Queue events processed during this call: a net commit, or the arrival
    /// of one commit at one sink group (all sinks of the net with one wire
    /// delay), which counts once however many pins it updates.
    std::uint64_t events = 0;
    bool quiescent = false;         ///< event queue drained
    bool budget_exceeded = false;   ///< stopped by the event budget (oscillation guard)
};

class Simulator {
public:
    explicit Simulator(const Netlist& nl, InitState init = InitState::AllZero);

    [[nodiscard]] const Netlist& netlist() const noexcept { return nl_; }
    [[nodiscard]] std::int64_t now() const noexcept { return now_; }
    [[nodiscard]] Logic value(NetId net) const;
    /// Value of a named net (throws if the name is unknown).
    [[nodiscard]] Logic value(const std::string& net_name) const;

    /// Schedule a primary-input change `delay_ps` after now().
    void schedule_pi(NetId pi, Logic v, std::int64_t delay_ps = 0);

    /// Extra wire delay from `net`'s driver to sink pin index `sink_idx`
    /// (index into Netlist net sinks). Cumulative with the cell delay of the
    /// sink's evaluation. Applies to the net's later commits; updates already
    /// queued keep the delay they were sent with.
    void set_sink_delay(NetId net, std::size_t sink_idx, std::int64_t delay_ps);
    /// Same extra delay for every sink of `net`.
    void set_net_delay(NetId net, std::int64_t delay_ps);

    /// Process events until the queue drains or `max_time_ps` / the event
    /// budget is hit.
    RunResult run(std::int64_t max_time_ps = std::numeric_limits<std::int64_t>::max());

    /// Run until `net` commits value `v` (returns immediately if it already
    /// holds). RunResult.quiescent is false if the condition was met first.
    RunResult run_until(NetId net, Logic v,
                        std::int64_t max_time_ps = std::numeric_limits<std::int64_t>::max());

    /// Commit observer; fired after `net` takes a new value. Keep callbacks
    /// re-entrant-safe: they may call schedule_pi but not run().
    void on_commit(NetId net, std::function<void(Logic, std::int64_t)> cb);

    /// Total committed transitions per net since construction.
    [[nodiscard]] std::uint64_t transitions(NetId net) const;
    /// Queue events processed since construction, counted as RunResult::events.
    [[nodiscard]] std::uint64_t total_events() const noexcept { return total_events_; }

    /// Oscillation guard: maximum queue events per run() call (default 20M),
    /// counted as RunResult::events, so a sink group's arrival counts once.
    /// A run that hits it stops with the next event still queued.
    void set_event_budget(std::uint64_t budget) noexcept { event_budget_ = budget; }

private:
    enum class Kind : std::uint8_t {
        PinUpdate,       ///< target is a sink group; updates its pins in sink order
        Commit,          ///< target is a net; transport, always applies
        InertialCommit,  ///< target is a net; live iff pending_stamp_ == seq + 1
    };
    struct Event {
        std::int64_t time;
        std::uint64_t seq;     ///< FIFO tie-break for determinism
        std::uint32_t target;
        Logic value;
        Kind kind;
    };

    /// Pending events in exact (time, seq) order. Events less than kWindow ps
    /// ahead of now sit in a timing wheel of 1 ps slots; later ones in a
    /// small binary heap. Every pending time is >= now and every wheel time is
    /// < now + kWindow, so one slot only ever holds events of one time, and
    /// pushes arrive in increasing seq, so each slot's FIFO is in seq order.
    class EventQueue {
    public:
        static constexpr std::int64_t kWindow = 1024;

        EventQueue();
        [[nodiscard]] bool empty() const noexcept { return wheel_size_ == 0 && far_.empty(); }
        /// `ev.time` must be >= `now`.
        void push(const Event& ev, std::int64_t now);
        /// The earliest pending event; the queue must not be empty.
        [[nodiscard]] const Event& front(std::int64_t now);
        /// Remove the event the last front() returned (no push in between).
        void pop_front();

    private:
        static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
        static constexpr std::size_t kSlots = static_cast<std::size_t>(kWindow);
        static constexpr std::size_t kWords = kSlots / 64;
        static_assert((kSlots & (kSlots - 1)) == 0 && kSlots % 64 == 0);

        /// A wheel event, linked into its slot's FIFO or the free list.
        struct Node {
            Event ev;
            std::uint32_t next;
        };
        struct Later {
            bool operator()(const Event& a, const Event& b) const noexcept {
                if (a.time != b.time) return a.time > b.time;
                return a.seq > b.seq;
            }
        };

        std::vector<Node> pool_;
        std::uint32_t free_ = kNil;
        std::size_t wheel_size_ = 0;
        std::vector<std::uint32_t> head_;
        std::vector<std::uint32_t> tail_;
        std::array<std::uint64_t, kWords> occupied_{};  ///< bit s: slot s non-empty
        std::priority_queue<Event, std::vector<Event>, Later> far_;
        std::uint32_t front_slot_ = kNil;  ///< slot of the last front(); kNil = far heap
    };

    /// Everything evaluate_cell needs about one cell, compiled once.
    struct CompiledCell {
        std::int64_t delay_ps;
        std::uint64_t lut_rows;       ///< truth-table word (fast_lut only)
        const netlist::TruthTable* table;
        std::uint32_t first_pin;      ///< index into pin_value_
        std::uint32_t output;         ///< driven net
        std::uint32_t known_row = 0;  ///< bit i set iff input i is T
        std::uint8_t arity;
        std::uint8_t x_inputs = 0;    ///< inputs currently X
        netlist::CellFunc func;
        bool fast_lut;                ///< LUT of arity <= 6
    };
    /// One fanout branch of a net: the sink's global pin and its wire delay.
    struct Sink {
        std::int64_t delay_ps;
        std::uint32_t pin;
    };
    /// The sinks of one net that share a wire delay. Group g's pins, in sink
    /// order, are group_pins_[groups_[g].first, groups_[g + 1].first).
    struct SinkGroup {
        std::int64_t delay_ps;
        std::uint32_t first;
    };
    /// A net's groups: groups_[begin, end).
    struct GroupRange {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    void regroup();
    void append_groups(std::uint32_t net);
    void commit_net(std::uint32_t net, Logic v);
    void update_pin(std::uint32_t pin, Logic v);
    void evaluate_cell(std::uint32_t cell);
    void schedule_commit(std::uint32_t net, Logic v, std::int64_t at);
    void push(std::int64_t at, std::uint32_t target, Logic v, Kind kind);

    const Netlist& nl_;
    std::int64_t now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t total_events_ = 0;
    std::uint64_t event_budget_ = 20'000'000;

    std::vector<CompiledCell> cells_;
    std::vector<std::uint32_t> pin_cell_;    ///< global pin -> owning cell
    std::vector<Logic> pin_value_;           ///< flattened cell input pins
    std::vector<std::uint32_t> sink_begin_;  ///< net -> first entry in sinks_ (CSR)
    std::vector<Sink> sinks_;                ///< the delays as set; groups derive from them
    // Sink groups, rebuilt by the next commit for the nets in stale_nets_
    // (which may repeat). A queued PinUpdate names a group, so groups are
    // only appended while events are pending (a regrouped net gets new ids,
    // the old ones keep their members and delay); a regroup with the queue
    // empty compacts. groups_ ends with a sentinel whose `first` closes the
    // last group.
    std::vector<SinkGroup> groups_;
    std::vector<std::uint32_t> group_pins_;
    std::vector<GroupRange> net_groups_;
    std::vector<std::uint32_t> stale_nets_;
    std::vector<std::pair<std::int64_t, std::uint32_t>> sorted_sinks_;  ///< (delay, sink)
    std::vector<Logic> net_value_;
    // Pending inertial commit per net: seq + 1 of the live scheduled event.
    std::vector<std::uint64_t> pending_stamp_;
    std::vector<Logic> pending_value_;
    std::vector<std::uint64_t> transitions_;
    std::vector<std::uint8_t> has_callback_;
    std::vector<std::vector<std::function<void(Logic, std::int64_t)>>> callbacks_;

    EventQueue queue_;
};

}  // namespace afpga::sim
