#include "sim/statevector.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace qompress {

GateMatrix::GateMatrix(
    std::initializer_list<std::initializer_list<Cplx>> rows)
    : n_(rows.size())
{
    data_.reserve(n_ * n_);
    for (const auto &row : rows) {
        QPANIC_IF(row.size() != n_, "GateMatrix: ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

GateMatrix
GateMatrix::identity(std::size_t n)
{
    GateMatrix m(n);
    for (std::size_t i = 0; i < n; ++i)
        m[i][i] = 1.0;
    return m;
}

void
GateMatrix::swapRows(std::size_t r1, std::size_t r2)
{
    QPANIC_IF(r1 >= n_ || r2 >= n_, "swapRows: row out of range");
    Cplx *a = (*this)[r1];
    Cplx *b = (*this)[r2];
    for (std::size_t c = 0; c < n_; ++c)
        std::swap(a[c], b[c]);
}

bool
isUnitary(const GateMatrix &u, double tol)
{
    const std::size_t n = u.size();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            Cplx dot = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                dot += std::conj(u[k][i]) * u[k][j];
            const Cplx expect = i == j ? 1.0 : 0.0;
            if (std::abs(dot - expect) > tol)
                return false;
        }
    }
    return true;
}

MixedRadixState::MixedRadixState(std::vector<int> dims)
    : dims_(std::move(dims))
{
    QFATAL_IF(dims_.empty(), "state needs at least one unit");
    std::size_t total = 1;
    strides_.resize(dims_.size());
    for (int u = static_cast<int>(dims_.size()) - 1; u >= 0; --u) {
        QFATAL_IF(dims_[u] < 2, "unit dimension must be >= 2");
        strides_[u] = total;
        total *= static_cast<std::size_t>(dims_[u]);
        QFATAL_IF(total > (1ULL << 26),
                  "state too large to simulate (", total, " amplitudes)");
    }
    amps_.assign(total, Cplx(0.0));
    amps_[0] = 1.0;
}

MixedRadixState
MixedRadixState::product(const std::vector<std::vector<Cplx>> &unit_states)
{
    std::vector<int> dims;
    dims.reserve(unit_states.size());
    for (const auto &s : unit_states)
        dims.push_back(static_cast<int>(s.size()));
    MixedRadixState state(std::move(dims));
    // Expand one unit at a time, in place from the back: after unit u
    // the leading entries hold the product over units 0..u, each entry
    // i spreading to [i * d, i * d + d), which no unread entry shares.
    Cplx *amps = state.amps_.data();
    std::size_t len = 1;
    for (const auto &s : unit_states) {
        const std::size_t d = s.size();
        for (std::size_t i = len; i-- > 0;) {
            const Cplx a = amps[i];
            for (std::size_t j = d; j-- > 0;)
                amps[i * d + j] = a * s[j];
        }
        len *= d;
    }
    return state;
}

int
MixedRadixState::digit(std::size_t idx, int unit) const
{
    return static_cast<int>(idx / strides_[unit]) % dims_[unit];
}

std::size_t
MixedRadixState::indexOf(const std::vector<int> &digits) const
{
    QPANIC_IF(digits.size() != dims_.size(), "indexOf: digit count");
    std::size_t idx = 0;
    for (std::size_t u = 0; u < digits.size(); ++u) {
        QPANIC_IF(digits[u] < 0 || digits[u] >= dims_[u],
                  "indexOf: digit out of range");
        idx += static_cast<std::size_t>(digits[u]) * strides_[u];
    }
    return idx;
}

double
MixedRadixState::norm() const
{
    double n2 = 0.0;
    for (const auto &a : amps_)
        n2 += std::norm(a);
    return std::sqrt(n2);
}

std::size_t
MixedRadixState::checkTargets(const std::vector<int> &units,
                              const GateMatrix &u) const
{
    QPANIC_IF(units.empty(), "applyUnitary: no targets");
    std::size_t k = 1;
    for (int t = static_cast<int>(units.size()) - 1; t >= 0; --t) {
        const int unit = units[t];
        QPANIC_IF(unit < 0 || unit >= numUnits(),
                  "applyUnitary: bad unit ", unit);
        k *= static_cast<std::size_t>(dims_[unit]);
    }
    QPANIC_IF(u.size() != k, "applyUnitary: matrix dim ", u.size(),
              " != target space ", k);
    return k;
}

namespace {

/** The 2^26-amplitude cap bounds a state at 26 dim->=2 units, so
 *  odometer digit/dim/stride sets always fit on the stack. */
constexpr int kMaxUnits = 32;

/** Odometer over a set of units, starting at index 0: a stack copy of
 *  the dims/strides it steps through, so the kernels' hot loops see
 *  provably loop-invariant locals instead of vector loads the
 *  optimizer must assume the amplitude stores could alias. */
struct Odometer
{
    int n = 0;
    int digit[kMaxUnits];
    int dims[kMaxUnits];
    std::size_t strides[kMaxUnits];

    /** Append a unit as the new rightmost (fastest) digit. */
    void
    push(int dim, std::size_t stride)
    {
        QPANIC_IF(n == kMaxUnits,
                  "Odometer: more than ", kMaxUnits, " units");
        digit[n] = 0;
        dims[n] = dim;
        strides[n] = stride;
        ++n;
    }

    /** Advance @p base by one step of the rightmost digit, carrying
     *  with stride subtraction (no div/mod). */
    inline void
    bump(std::size_t &base)
    {
        for (int t = n - 1; t >= 0; --t) {
            base += strides[t];
            if (++digit[t] < dims[t])
                return;
            base -= strides[t] * static_cast<std::size_t>(dims[t]);
            digit[t] = 0;
        }
    }
};

// The gate kernels, each over all @p blocks complement blocks.
// Per block, each computes the sum the naive reference does, up to
// the sign of exact zeros (a dropped 0 * x term, or the reference's
// leading 0 +).

/** The dense 2 x 2 product. */
void
runDense2(Cplx *amps, const Cplx *m, const std::size_t *offset,
          std::size_t blocks, Odometer &odo)
{
    const Cplx m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
    const std::size_t s1 = offset[1];
    std::size_t base = 0;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
        const Cplx a0 = amps[base];
        const Cplx a1 = amps[base + s1];
        amps[base] = m00 * a0 + m01 * a1;
        amps[base + s1] = m10 * a0 + m11 * a1;
        odo.bump(base);
    }
}

/** The dense 4 x 4 product, unrolled. */
void
runDense4(Cplx *amps, const Cplx *m, const std::size_t *offset,
          std::size_t blocks, Odometer &odo)
{
    // Local copy: the gate's matrix lives behind a pointer the
    // amplitude stores could alias; registers/stack slots cannot.
    Cplx lm[16];
    std::copy(m, m + 16, lm);
    const std::size_t s1 = offset[1], s2 = offset[2], s3 = offset[3];
    std::size_t base = 0;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
        const Cplx a0 = amps[base];
        const Cplx a1 = amps[base + s1];
        const Cplx a2 = amps[base + s2];
        const Cplx a3 = amps[base + s3];
        amps[base] = lm[0] * a0 + lm[1] * a1 + lm[2] * a2 + lm[3] * a3;
        amps[base + s1] =
            lm[4] * a0 + lm[5] * a1 + lm[6] * a2 + lm[7] * a3;
        amps[base + s2] =
            lm[8] * a0 + lm[9] * a1 + lm[10] * a2 + lm[11] * a3;
        amps[base + s3] =
            lm[12] * a0 + lm[13] * a1 + lm[14] * a2 + lm[15] * a3;
        odo.bump(base);
    }
}

/** Row r: the sum over its nonzeros, in column order, from 0. */
void
runRows(Cplx *amps, std::size_t k, const std::size_t *offset,
        const std::size_t *row_begin, const std::size_t *col,
        const Cplx *val, std::size_t blocks, Odometer &odo)
{
    std::vector<Cplx> in(k);
    std::size_t base = 0;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
        for (std::size_t li = 0; li < k; ++li)
            in[li] = amps[base + offset[li]];
        for (std::size_t row = 0; row < k; ++row) {
            Cplx acc = 0.0;
            for (std::size_t p = row_begin[row]; p < row_begin[row + 1];
                 ++p) {
                acc += val[p] * in[col[p]];
            }
            amps[base + offset[row]] = acc;
        }
        odo.bump(base);
    }
}

} // namespace

PreparedGate
MixedRadixState::prepare(const std::vector<int> &units,
                         const GateMatrix &u) const
{
    const std::size_t k = checkTargets(units, u);
    PreparedGate g;
    g.shape_ = dims_;

    // Tabulate the gather offset of every local index once: the
    // kernels then index the amplitudes directly, with no div/mod.
    g.offset_.resize(k);
    {
        Odometer odo;
        for (int unit : units)
            odo.push(dims_[unit], strides_[unit]);
        std::size_t off = 0;
        for (std::size_t li = 0; li < k; ++li) {
            g.offset_[li] = off;
            odo.bump(off);
        }
    }

    // Complement units enumerate the untouched subspace.
    bool used[kMaxUnits] = {};
    for (int unit : units)
        used[unit] = true;
    g.restDims_.reserve(dims_.size());
    g.restStrides_.reserve(dims_.size());
    for (std::size_t w = 0; w < dims_.size(); ++w) {
        if (!used[w]) {
            g.restDims_.push_back(dims_[w]);
            g.restStrides_.push_back(strides_[w]);
        }
    }

    const auto nonzero = [](const Cplx &v) { return v != Cplx(0.0); };
    const std::size_t nnz = static_cast<std::size_t>(
        std::count_if(u.data().begin(), u.data().end(), nonzero));
    if (k == 2 || (k == 4 && nnz == 16)) {
        g.kernel_ = PreparedGate::Kernel::Dense;
        g.val_ = u.data();
        return g;
    }

    // Compress the nonzero structure once: most physical gate classes
    // are permutations, so row work is O(1) rather than O(k).
    g.col_.reserve(nnz);
    g.val_.reserve(nnz);
    g.rowBegin_.reserve(k + 1);
    g.rowBegin_.push_back(0);
    for (std::size_t row = 0; row < k; ++row) {
        const Cplx *urow = u[row];
        for (std::size_t col = 0; col < k; ++col) {
            if (nonzero(urow[col])) {
                g.col_.push_back(col);
                g.val_.push_back(urow[col]);
            }
        }
        g.rowBegin_.push_back(g.col_.size());
    }
    return g;
}

void
MixedRadixState::apply(const PreparedGate &g)
{
    QPANIC_IF(g.shape_ != dims_,
              "apply: gate prepared for a state of another shape");
    const std::size_t k = g.dim();
    const std::size_t blocks = size() / k;
    Odometer odo;
    for (std::size_t t = 0; t < g.restDims_.size(); ++t)
        odo.push(g.restDims_[t], g.restStrides_[t]);
    Cplx *amps = amps_.data();
    switch (g.kernel_) {
      case PreparedGate::Kernel::Dense:
        (k == 2 ? runDense2 : runDense4)(amps, g.val_.data(),
                                         g.offset_.data(), blocks, odo);
        return;
      case PreparedGate::Kernel::Rows:
        runRows(amps, k, g.offset_.data(), g.rowBegin_.data(),
                g.col_.data(), g.val_.data(), blocks, odo);
        return;
    }
}

void
MixedRadixState::applyUnitary(const std::vector<int> &units,
                              const GateMatrix &u)
{
    apply(prepare(units, u));
}

void
MixedRadixState::applyUnitaryNaive(const std::vector<int> &units,
                                   const GateMatrix &u)
{
    const std::size_t k = checkTargets(units, u);
    std::vector<std::size_t> local_stride(units.size());
    {
        std::size_t acc = 1;
        for (int t = static_cast<int>(units.size()) - 1; t >= 0; --t) {
            local_stride[t] = acc;
            acc *= static_cast<std::size_t>(dims_[units[t]]);
        }
    }

    std::vector<int> rest;
    for (int w = 0; w < numUnits(); ++w) {
        bool used = false;
        for (int unit : units)
            used |= (unit == w);
        if (!used)
            rest.push_back(w);
    }

    std::vector<Cplx> in(k), out(k);
    std::vector<int> rest_digit(rest.size(), 0);
    bool more = true;
    while (more) {
        std::size_t base = 0;
        for (std::size_t r = 0; r < rest.size(); ++r)
            base += static_cast<std::size_t>(rest_digit[r]) *
                    strides_[rest[r]];

        // Gather, multiply, scatter -- recomputing each gather index
        // from scratch with div/mod (the pre-optimization behaviour).
        for (std::size_t li = 0; li < k; ++li) {
            std::size_t idx = base;
            std::size_t tmp = li;
            for (std::size_t t = 0; t < units.size(); ++t) {
                const std::size_t digit = tmp / local_stride[t];
                tmp %= local_stride[t];
                idx += digit * strides_[units[t]];
            }
            in[li] = amps_[idx];
        }
        for (std::size_t row = 0; row < k; ++row) {
            Cplx acc = 0.0;
            for (std::size_t col = 0; col < k; ++col) {
                if (u[row][col] != Cplx(0.0))
                    acc += u[row][col] * in[col];
            }
            out[row] = acc;
        }
        for (std::size_t li = 0; li < k; ++li) {
            std::size_t idx = base;
            std::size_t tmp = li;
            for (std::size_t t = 0; t < units.size(); ++t) {
                const std::size_t digit = tmp / local_stride[t];
                tmp %= local_stride[t];
                idx += digit * strides_[units[t]];
            }
            amps_[idx] = out[li];
        }

        // Advance the complement counter; an empty complement means a
        // single block, so the loop simply terminates.
        more = false;
        for (int r = static_cast<int>(rest.size()) - 1; r >= 0; --r) {
            if (++rest_digit[r] < dims_[rest[r]]) {
                more = true;
                break;
            }
            rest_digit[r] = 0;
        }
    }
}

double
MixedRadixState::overlap(const MixedRadixState &a, const MixedRadixState &b)
{
    QPANIC_IF(a.size() != b.size(), "overlap: shape mismatch");
    Cplx dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        dot += std::conj(a.amps_[i]) * b.amps_[i];
    return std::norm(dot);
}

} // namespace qompress
