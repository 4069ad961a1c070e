/**
 * @file
 * A mixed-radix statevector simulator: each physical unit is a qudit
 * of dimension 2 or 4, and arbitrary k-unit unitaries can be applied.
 * Used to verify that compiled circuits implement their logical input.
 */

#ifndef QOMPRESS_SIM_STATEVECTOR_HH
#define QOMPRESS_SIM_STATEVECTOR_HH

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace qompress {

using Cplx = std::complex<double>;

/**
 * Flat row-major dense complex matrix used for small gate unitaries.
 *
 * Rows are addressed as contiguous Cplx spans (`m[r][c]`), so gate
 * application kernels walk memory linearly instead of chasing one heap
 * block per row as the old vector-of-vectors representation did.
 */
class GateMatrix
{
  public:
    GateMatrix() = default;

    /** Zero matrix of shape n x n. */
    explicit GateMatrix(std::size_t n) : n_(n), data_(n * n, Cplx(0.0)) {}

    /** Dense construction from nested braces (rows must be square). */
    GateMatrix(std::initializer_list<std::initializer_list<Cplx>> rows);

    /** The n x n identity. */
    static GateMatrix identity(std::size_t n);

    /** Matrix dimension (rows == cols). */
    std::size_t size() const { return n_; }

    /** Row @p r as a contiguous span of size() entries. */
    Cplx *operator[](std::size_t r) { return data_.data() + r * n_; }
    const Cplx *operator[](std::size_t r) const
    {
        return data_.data() + r * n_;
    }

    /** Exchange two rows (used to build permutation-like gates). */
    void swapRows(std::size_t r1, std::size_t r2);

    /** The flat row-major backing store (size() * size() entries). */
    const std::vector<Cplx> &data() const { return data_; }

  private:
    std::size_t n_ = 0;
    std::vector<Cplx> data_;
};

/** True iff @p u is unitary within @p tol (used by tests). */
bool isUnitary(const GateMatrix &u, double tol = 1e-9);

/**
 * A gate bound to one state shape, ready to be applied any number of
 * times (see MixedRadixState::prepare). It holds the gather offset of
 * every local index, the complement units' dims and strides, and the
 * matrix in the form its kernel reads: every entry of a dense k = 2
 * or k = 4 gate, or the nonzero entries row by row. Nothing in it
 * grows with the state size. Immutable once built; one gate may be
 * applied to several states of its shape, from several threads.
 */
class PreparedGate
{
  public:
    /** Dimension k of the target space. */
    std::size_t dim() const { return offset_.size(); }

  private:
    friend class MixedRadixState;

    /** The kernel apply() runs: the dense product (k = 2, or k = 4
     *  with no zero entry), or the nonzero entries row by row (every
     *  other gate, e.g. the CX and SWAP classes' permutations). */
    enum class Kernel { Dense, Rows };

    Kernel kernel_ = Kernel::Rows;
    /** Dims of the state it was prepared for. */
    std::vector<int> shape_;
    /** Gather offset of every local index (target 0 most significant). */
    std::vector<std::size_t> offset_;
    /** Dims and strides of the units the gate does not touch. */
    std::vector<int> restDims_;
    std::vector<std::size_t> restStrides_;
    /** Rows: the column of each nonzero. */
    std::vector<std::size_t> col_;
    /** Rows: row r's nonzeros are [rowBegin_[r], rowBegin_[r + 1]). */
    std::vector<std::size_t> rowBegin_;
    /** Nonzero values, row by row (Dense: every entry). */
    std::vector<Cplx> val_;
};

/**
 * Statevector over an ordered list of qudits with per-qudit dimension.
 *
 * Unit 0 is the most significant digit of the basis index (matching
 * the |q0 q1 ...> reading order used throughout).
 *
 * Thread-safety: distinct states are independent; one state must not
 * be mutated from two threads. Every gate application runs on the
 * calling thread, and a PreparedGate may be shared by threads that
 * apply it to states of their own.
 */
class MixedRadixState
{
  public:
    /** |0...0> over the given dimensions. */
    explicit MixedRadixState(std::vector<int> dims);

    /** Product state: one normalized amplitude vector per unit. Each
     *  amplitude is 1.0 times its units' entries, multiplied in unit
     *  order (a Kronecker expansion, no per-amplitude digit math). */
    static MixedRadixState product(
        const std::vector<std::vector<Cplx>> &unit_states);

    /** Number of qudits. */
    int numUnits() const { return static_cast<int>(dims_.size()); }
    /** Dimension (2 or 4) of @p unit. */
    int dim(int unit) const { return dims_[unit]; }
    /** Total amplitude count (product of all unit dims). */
    std::size_t size() const { return amps_.size(); }

    /** The full amplitude vector, basis-ordered. */
    const std::vector<Cplx> &amplitudes() const { return amps_; }
    /** Amplitude of basis state @p idx. */
    Cplx amp(std::size_t idx) const { return amps_[idx]; }

    /** The basis digit of @p unit within global index @p idx. */
    int digit(std::size_t idx, int unit) const;

    /** Compose a global index from per-unit digits. */
    std::size_t indexOf(const std::vector<int> &digits) const;

    /** 2-norm of the state. */
    double norm() const;

    /**
     * Bind @p u (dimension = product of the targets' dims, target 0
     * most significant) to the listed units of this state's shape:
     * tabulate its gather offsets and complement, and pick its kernel
     * (k = 2 gates and k = 4 gates without a zero entry stay dense;
     * the others keep only their nonzero entries, so a permutation
     * costs one multiply per amplitude). Panics on a bad unit or a
     * matrix of the wrong size.
     */
    PreparedGate prepare(const std::vector<int> &units,
                         const GateMatrix &u) const;

    /**
     * Apply a prepared gate. The complement subspace is enumerated by
     * incremental stride bumps, so the per-amplitude inner loop does
     * no division or modulo. Panics when @p g was prepared for a
     * state of a different shape. Runs on the calling thread.
     */
    void apply(const PreparedGate &g);

    /** apply(prepare(units, u)): for a gate applied once. */
    void applyUnitary(const std::vector<int> &units, const GateMatrix &u);

    /**
     * Reference implementation of applyUnitary: recomputes every
     * gather index with explicit div/mod arithmetic. Retained for
     * differential tests and the bench_hotpaths baseline; do not use
     * in production paths.
     */
    void applyUnitaryNaive(const std::vector<int> &units,
                           const GateMatrix &u);

    /** Fidelity |<a|b>|^2 between two same-shape states. */
    static double overlap(const MixedRadixState &a,
                          const MixedRadixState &b);

  private:
    /** Shared operand validation; returns the target-space dim k. */
    std::size_t checkTargets(const std::vector<int> &units,
                             const GateMatrix &u) const;

    std::vector<int> dims_;
    std::vector<std::size_t> strides_;
    std::vector<Cplx> amps_;
};

} // namespace qompress

#endif // QOMPRESS_SIM_STATEVECTOR_HH
