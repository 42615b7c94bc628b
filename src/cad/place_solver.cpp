#include "cad/place_solver.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "cad/place_model.hpp"

namespace afpga::cad {

void QuadSystem::reset(std::size_t n) {
    diag.assign(n, 0.0);
    rhs.assign(n, 0.0);
    off.clear();
    row_start.clear();
    col.clear();
    val.clear();
}

void QuadSystem::fix_degenerate(const std::vector<double>& x) {
    for (std::size_t i = 0; i < diag.size(); ++i)
        if (diag[i] == 0.0) {
            diag[i] = 1.0;
            rhs[i] = x[i];
        }
}

void QuadSystem::finalize() {
    const std::size_t n = diag.size();
    // One stable counting sort of `in` into `out` by the key `key_of`.
    auto counting_sort = [&](const std::vector<Triplet>& in, std::vector<Triplet>& out,
                             auto key_of) {
        cursor_.assign(n + 1, 0);
        for (const Triplet& t : in) ++cursor_[key_of(t) + 1];
        for (std::size_t i = 0; i < n; ++i) cursor_[i + 1] += cursor_[i];
        out.resize(in.size());
        for (const Triplet& t : in) out[cursor_[key_of(t)]++] = t;
    };
    counting_sort(off, by_col_, [](const Triplet& t) { return t.col; });
    counting_sort(by_col_, by_row_, [](const Triplet& t) { return t.row; });
    row_start.assign(n + 1, 0);
    for (std::size_t t = 0; t < by_row_.size();) {
        const std::uint32_t row = by_row_[t].row;
        const std::uint32_t column = by_row_[t].col;
        double w = 0;
        for (; t < by_row_.size() && by_row_[t].row == row && by_row_[t].col == column; ++t)
            w += by_row_[t].w;
        col.push_back(column);
        val.push_back(w);
        ++row_start[row + 1];
    }
    for (std::size_t i = 1; i < row_start.size(); ++i) row_start[i] += row_start[i - 1];
    off.clear();
}

void QuadSystem::apply(const std::vector<double>& x, std::vector<double>& y) const {
    const std::size_t n = diag.size();
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = diag[i] * x[i];
        for (std::size_t t = row_start[i]; t < row_start[i + 1]; ++t)
            acc += val[t] * x[col[t]];
        y[i] = acc;
    }
}

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
}

}  // namespace

std::uint64_t solve_pcg(const QuadSystem& sys, std::vector<double>& x, int max_iters,
                        double tol, PcgScratch& scratch) {
    const std::size_t n = x.size();
    if (n == 0) return 0;
    std::vector<double>& r = scratch.r;
    std::vector<double>& z = scratch.z;
    std::vector<double>& p = scratch.p;
    std::vector<double>& ap = scratch.ap;
    r.resize(n);
    z.resize(n);
    sys.apply(x, ap);
    for (std::size_t i = 0; i < n; ++i) r[i] = sys.rhs[i] - ap[i];
    double bnorm = std::sqrt(dot(sys.rhs, sys.rhs));
    if (bnorm < 1e-300) bnorm = 1.0;
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / sys.diag[i];
    p = z;
    double rz = dot(r, z);
    std::uint64_t iters = 0;
    for (int it = 0; it < max_iters; ++it) {
        if (std::sqrt(dot(r, r)) <= tol * bnorm) break;
        sys.apply(p, ap);
        const double pap = dot(p, ap);
        if (!(pap > 0)) break;  // numerical breakdown: keep the best x so far
        const double alpha = rz / pap;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / sys.diag[i];
        const double rz_new = dot(r, z);
        ++iters;
        if (!(rz_new > 0)) break;
        const double beta = rz_new / rz;
        rz = rz_new;
        for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    return iters;
}

void spread_targets(std::uint32_t width, std::uint32_t height, std::size_t num_nodes,
                    const std::vector<double>& cx, const std::vector<double>& cy,
                    const std::uint32_t* weight, std::vector<double>& tgt_x,
                    std::vector<double>& tgt_y, SpreadScratch& scratch) {
    if (num_nodes == 0) return;
    scratch.idx.resize(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) scratch.idx[i] = i;
    scratch.stack.clear();
    scratch.stack.push_back({0, width, 0, height, 0, num_nodes});
    auto weight_of = [&](std::size_t node) -> std::uint64_t {
        return weight == nullptr ? 1 : weight[node];
    };
    while (!scratch.stack.empty()) {
        const SpreadScratch::Region rg = scratch.stack.back();
        scratch.stack.pop_back();
        const std::size_t size = rg.end - rg.begin;
        if (size == 0) continue;
        const std::uint32_t w = rg.x1 - rg.x0;
        const std::uint32_t h = rg.y1 - rg.y0;
        if (size == 1 || (w == 1 && h == 1)) {
            const double tx =
                (static_cast<double>(rg.x0) + static_cast<double>(rg.x1) - 1.0) / 2.0 + 1.0;
            const double ty =
                (static_cast<double>(rg.y0) + static_cast<double>(rg.y1) - 1.0) / 2.0 + 1.0;
            for (std::size_t t = rg.begin; t < rg.end; ++t) {
                tgt_x[scratch.idx[t]] = tx;
                tgt_y[scratch.idx[t]] = ty;
            }
            continue;
        }
        const bool split_x = w >= h;
        const std::uint32_t xm = split_x ? rg.x0 + w / 2 : rg.x1;
        const std::uint32_t ym = split_x ? rg.y1 : rg.y0 + h / 2;
        const std::uint64_t cap_lo =
            split_x ? std::uint64_t{xm - rg.x0} * h : std::uint64_t{ym - rg.y0} * w;
        const std::uint64_t cap_hi =
            split_x ? std::uint64_t{rg.x1 - xm} * h : std::uint64_t{rg.y1 - ym} * w;
        const auto first = scratch.idx.begin() + static_cast<std::ptrdiff_t>(rg.begin);
        const auto last = scratch.idx.begin() + static_cast<std::ptrdiff_t>(rg.end);
        std::sort(first, last, [&](std::size_t a, std::size_t b) {
            const double ca = split_x ? cx[a] : cy[a];
            const double cb = split_x ? cx[b] : cy[b];
            if (ca != cb) return ca < cb;
            return a < b;
        });
        // Site i's center coordinate is i+1, so the cut between sites xm-1
        // and xm lies at coordinate xm + 0.5.
        const double cut =
            split_x ? static_cast<double>(xm) + 0.5 : static_cast<double>(ym) + 0.5;
        std::size_t k = 0;
        std::uint64_t w_lo = 0;
        while (k < size) {
            const std::size_t node = scratch.idx[rg.begin + k];
            if ((split_x ? cx[node] : cy[node]) > cut) break;
            w_lo += weight_of(node);
            ++k;
        }
        std::uint64_t w_hi = 0;
        for (std::size_t t = rg.begin + k; t < rg.end; ++t) w_hi += weight_of(scratch.idx[t]);
        // Shift the boundary only as far as capacity demands. With unit
        // weights this is exactly k = min(k, cap_lo), then k = max(k,
        // size - cap_hi); with lumpy weights the second loop may re-exceed
        // cap_lo — best effort, see the header.
        while (k > 0 && w_lo > cap_lo) {
            --k;
            const std::uint64_t nw = weight_of(scratch.idx[rg.begin + k]);
            w_lo -= nw;
            w_hi += nw;
        }
        while (k < size && w_hi > cap_hi) {
            const std::uint64_t nw = weight_of(scratch.idx[rg.begin + k]);
            w_lo += nw;
            w_hi -= nw;
            ++k;
        }
        const std::size_t mid = rg.begin + k;
        if (split_x) {
            scratch.stack.push_back({xm, rg.x1, rg.y0, rg.y1, mid, rg.end});
            scratch.stack.push_back({rg.x0, xm, rg.y0, rg.y1, rg.begin, mid});
        } else {
            scratch.stack.push_back({rg.x0, rg.x1, ym, rg.y1, mid, rg.end});
            scratch.stack.push_back({rg.x0, rg.x1, rg.y0, ym, rg.begin, mid});
        }
    }
}

void PadFrame::build(const std::vector<PlacePt>& pads, std::uint32_t width,
                     std::uint32_t height) {
    // Side order is arbitrary (queries take a 4-way lexicographic min) but
    // the geometry must match place_model's pad frame exactly.
    sides_[0] = {1, 0.0, {}, 0};                               // left:   x = 0
    sides_[1] = {1, static_cast<double>(width) + 1.0, {}, 0};  // right:  x = W+1
    sides_[2] = {0, 0.0, {}, 0};                               // bottom: y = 0
    sides_[3] = {0, static_cast<double>(height) + 1.0, {}, 0}; // top:    y = H+1
    side_of_.resize(pads.size());
    for (std::uint32_t p = 0; p < pads.size(); ++p) {
        const PlacePt pt = pads[p];
        std::uint8_t side = 0;
        if (pt.x == sides_[0].fixed)
            side = 0;
        else if (pt.x == sides_[1].fixed)
            side = 1;
        else if (pt.y == sides_[2].fixed)
            side = 2;
        else {
            base::check(pt.y == sides_[3].fixed, "PadFrame: pad off the perimeter frame");
            side = 3;
        }
        side_of_[p] = side;
        sides_[side].pads.push_back({sides_[side].run_axis == 0 ? pt.x : pt.y, p});
    }
    for (Side& side : sides_)
        std::sort(side.pads.begin(), side.pads.end(), [](const Entry& a, const Entry& b) {
            return a.run != b.run ? a.run < b.run : a.pad < b.pad;
        });
    taken_.assign(pads.size(), 0);
    gen_ = 0;  // reset() moves to generation 1, where nothing is taken
    reset();
}

void PadFrame::reset() {
    if (++gen_ == 0) {  // wrapped: no stale stamp may alias the new generation
        std::fill(taken_.begin(), taken_.end(), 0);
        gen_ = 1;
    }
    for (Side& side : sides_) side.n_free = side.pads.size();
    lowest_ = 0;
}

bool PadFrame::lowest_free(std::uint32_t& out) const {
    if (lowest_ == taken_.size()) return false;
    out = lowest_;
    return true;
}

bool PadFrame::nearest_free(double gx, double gy, std::uint32_t& out) const {
    double best_d = 0.0;
    std::uint32_t best = 0;
    bool found = false;
    auto consider = [&](double d, std::uint32_t p) {
        if (!found || d < best_d || (d == best_d && p < best)) {
            best_d = d;
            best = p;
            found = true;
        }
    };
    for (const Side& side : sides_) {
        if (side.n_free == 0) continue;
        const double g = side.run_axis == 0 ? gx : gy;
        // The off-axis term |side.fixed - off| is the same |pad.x - gx| /
        // |pad.y - gy| term the full scan computes, and two-term IEEE
        // addition is commutative, so d below is bit-identical to the
        // scan's distance.
        const double off_term = std::abs(side.fixed - (side.run_axis == 0 ? gy : gx));
        const Entry* const first = side.pads.data();
        const Entry* const last = first + side.pads.size();
        const Entry* const mid = std::lower_bound(
            first, last, g, [](const Entry& e, double v) { return e.run < v; });
        // At or above g: the first free entry is the lowest free index of
        // the nearest free run there (entries are sorted by (run, pad)).
        for (const Entry* e = mid; e != last; ++e)
            if (is_free(e->pad)) {
                consider(std::abs(e->run - g) + off_term, e->pad);
                break;
            }
        // Below g: find the nearest free run, then its lowest free index.
        const Entry* e = mid;
        while (e != first && !is_free((e - 1)->pad)) --e;
        if (e != first) {
            const double below = (e - 1)->run;
            std::uint32_t pad = (e - 1)->pad;
            for (--e; e != first && (e - 1)->run == below; --e)
                if (is_free((e - 1)->pad)) pad = (e - 1)->pad;
            consider(std::abs(below - g) + off_term, pad);
        }
    }
    if (found) out = best;
    return found;
}

void PadFrame::take(std::uint32_t pad) {
    AFPGA_ASSERT(is_free(pad), "PadFrame::take: pad already taken");
    taken_[pad] = gen_;
    --sides_[side_of_[pad]].n_free;
    while (lowest_ < taken_.size() && !is_free(lowest_)) ++lowest_;
}

}  // namespace afpga::cad
