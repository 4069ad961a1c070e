#include "pulse/grape.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hh"
#include "common/rng.hh"

namespace qompress {

namespace {

/**
 * Van Loan augmented exponential: for M = [[A, B], [0, A]],
 * expm(M) = [[e^A, D], [0, e^A]] where D is the exact directional
 * derivative of the exponential at A in direction B. Returns D.
 * (Reference path only; the optimized gradient uses expmFamilyInto.)
 */
CMatrix
expmDirectional(const CMatrix &a, const CMatrix &b)
{
    const int n = a.rows();
    CMatrix m(2 * n, 2 * n);
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            m(r, c) = a(r, c);
            m(n + r, n + c) = a(r, c);
            m(r, n + c) = b(r, c);
        }
    }
    const CMatrix e = expm(m);
    CMatrix d(n, n);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            d(r, c) = e(r, n + c);
    return d;
}

/** Tr(x * y) without forming the product. */
CMatrix::Scalar
traceOfProduct(const CMatrix &x, const CMatrix &y)
{
    CMatrix::Scalar t = 0.0;
    for (int r = 0; r < x.rows(); ++r)
        for (int c = 0; c < x.cols(); ++c)
            t += x(r, c) * y(c, r);
    return t;
}

/** Resize-and-zero a [k][j] gradient buffer without reallocating once
 *  rows have reached their final capacity. */
void
zeroGrad(std::vector<std::vector<double>> &grad, std::size_t nk,
         int segments)
{
    if (grad.size() != nk)
        grad.resize(nk);
    for (auto &row : grad)
        row.assign(static_cast<std::size_t>(segments), 0.0);
}

} // namespace

GrapeOptimizer::GrapeOptimizer(const TransmonSystem &system, CMatrix target,
                               double duration_ns, int segments,
                               GrapeOptions opts)
    : system_(&system), duration_(duration_ns), segments_(segments),
      opts_(opts)
{
    QFATAL_IF(duration_ns <= 0.0, "duration must be positive");
    QFATAL_IF(segments < 1, "need at least one segment");
    QFATAL_IF(target.rows() != system.logicalDim() ||
              target.cols() != system.logicalDim(),
              "target must act on the logical subspace (dim ",
              system.logicalDim(), ")");
    dt_ = duration_ / segments_;

    // Embed the logical target into the full space (zero rows/columns
    // on guard levels): Tr(V_full^dag U) is then exactly the logical
    // subspace trace of Eq. (1).
    targetFull_ = CMatrix(system.dim(), system.dim());
    for (int r = 0; r < target.rows(); ++r)
        for (int c = 0; c < target.cols(); ++c)
            targetFull_(system.logicalToFull(r),
                        system.logicalToFull(c)) = target(r, c);
    daggerInto(targetDagger_, targetFull_);
}

std::vector<CMatrix>
GrapeOptimizer::propagators(
    const std::vector<std::vector<double>> &controls) const
{
    const auto &hc = system_->controls();
    QPANIC_IF(controls.size() != hc.size(), "control count mismatch");
    std::vector<CMatrix> props;
    props.reserve(segments_);
    for (int j = 0; j < segments_; ++j) {
        CMatrix h = system_->drift();
        for (std::size_t k = 0; k < hc.size(); ++k)
            h += hc[k] * CMatrix::Scalar(controls[k][j]);
        props.push_back(expm(h * CMatrix::Scalar(0.0, -dt_)));
    }
    return props;
}

CMatrix
GrapeOptimizer::totalUnitary(
    const std::vector<std::vector<double>> &controls) const
{
    CMatrix u = CMatrix::identity(system_->dim());
    for (const auto &p : propagators(controls))
        u = p * u;
    return u;
}

void
GrapeOptimizer::evaluate(const std::vector<std::vector<double>> &controls,
                         double &fidelity, double &leakage) const
{
    const CMatrix u = totalUnitary(controls);
    const double h = system_->logicalDim();
    const CMatrix::Scalar z = (targetFull_.dagger() * u).trace();
    fidelity = std::norm(z) / (h * h);
    leakage = 0.0;
    for (int c = 0; c < system_->dim(); ++c) {
        if (!system_->isLogicalIndex(c))
            continue;
        for (int r = 0; r < system_->dim(); ++r) {
            if (!system_->isLogicalIndex(r))
                leakage += std::norm(u(r, c));
        }
    }
    leakage /= h;
}

double
GrapeOptimizer::objectiveAndGradient(
    const std::vector<std::vector<double>> &controls,
    std::vector<std::vector<double>> &grad, double &fidelity,
    double &leakage, GrapeWorkspace &ws) const
{
    const int dim = system_->dim();
    const double h = system_->logicalDim();
    const auto &hc = system_->controls();
    QPANIC_IF(controls.size() != hc.size(), "control count mismatch");
    const std::size_t nk = hc.size();

    // Per-control generators -i dt Hc_k. Constant for one optimizer,
    // but refreshed every call (a cheap n^2 copy next to the n^3
    // matmuls) so a workspace reused across optimizers with different
    // dt or control Hamiltonians can never supply stale directions.
    if (ws.bgen.size() != nk)
        ws.bgen.resize(nk);
    for (std::size_t k = 0; k < nk; ++k)
        scaleInto(ws.bgen[k], CMatrix::Scalar(0.0, -dt_), hc[k]);

    if (ws.props.size() != static_cast<std::size_t>(segments_)) {
        ws.props.resize(segments_);
        ws.fwd.resize(segments_);
        ws.wback.resize(segments_);
        ws.yback.resize(segments_);
        ws.du.resize(segments_);
    }

    // Lane setup: segments are independent in both parallel phases
    // below, so they fan out across opts_.threads lanes with one
    // LaneScratch per lane (never shrunk, so a workspace reused at a
    // smaller lane count stays warm). A one-lane pool runs inline.
    ThreadPool &pool = ThreadPool::forRequest(opts_.threads, ws.ownPool);
    const std::size_t nlanes = static_cast<std::size_t>(pool.numThreads());
    if (ws.lanes.size() < nlanes)
        ws.lanes.resize(nlanes);
    const bool probing = ws.allocProbe != nullptr;
    if (probing)
        ws.laneAllocs.assign(ws.lanes.size(), 0);

    // Deterministic lane warm-up: segments distribute dynamically, so
    // a lane's first-ever segment may otherwise land mid-iteration
    // many calls in (a single run through one dummy segment sizes all
    // of a lane's scratch). Doing it here, on the calling thread,
    // keeps the warm path allocation-free *per lane* from the first
    // pooled iteration onwards. props[0]/du[0] are scratch targets
    // only — phase 1 recomputes them with the real controls.
    if (ws.warmLaneCount < nlanes || ws.warmDim != dim) {
        for (std::size_t l = 0; l < nlanes; ++l) {
            GrapeWorkspace::LaneScratch &ls = ws.lanes[l];
            ls.hseg.copyFrom(system_->drift());
            scaleInto(ls.agen, CMatrix::Scalar(0.0, -dt_), ls.hseg);
            expmFamilyInto(ws.props[0], ws.du[0], ls.agen, ws.bgen,
                           ls.famWs);
            ls.pw.resize(dim, dim);
            ls.py.resize(dim, dim);
        }
        ws.warmLaneCount = nlanes;
        ws.warmDim = dim;
    }

    // Phase 1 (parallel over segments): one shared-series exponential
    // per segment yields the propagator and every control's
    // directional derivative together. Each segment writes only its
    // own props[j]/du[j] slot; the per-segment math is identical to
    // the serial loop, so results are bit-identical at any lane count.
    auto segment_exponential = [&](std::size_t j, int lane) {
        GrapeWorkspace::LaneScratch &ls =
            ws.lanes[static_cast<std::size_t>(lane)];
        const std::uint64_t before = probing ? ws.allocProbe() : 0;
        ls.hseg.copyFrom(system_->drift());
        for (std::size_t k = 0; k < nk; ++k)
            addScaledInto(ls.hseg, CMatrix::Scalar(controls[k][j]),
                          hc[k]);
        scaleInto(ls.agen, CMatrix::Scalar(0.0, -dt_), ls.hseg);
        expmFamilyInto(ws.props[j], ws.du[j], ls.agen, ws.bgen,
                       ls.famWs);
        if (probing)
            ws.laneAllocs[static_cast<std::size_t>(lane)] +=
                ws.allocProbe() - before;
    };
    // std::ref keeps the lambda out of std::function's heap storage,
    // so a warm one-lane call stays allocation-free.
    pool.parallelFor(0, static_cast<std::size_t>(segments_),
                     std::ref(segment_exponential));

    // Forward cumulative products A_j = U_j ... U_0.
    ws.fwd[0].copyFrom(ws.props[0]);
    for (int j = 1; j < segments_; ++j)
        mulInto(ws.fwd[j], ws.props[j], ws.fwd[j - 1]);
    const CMatrix &u = ws.fwd[segments_ - 1];

    CMatrix::Scalar z = 0.0;
    for (int r = 0; r < dim; ++r)
        for (int c = 0; c < dim; ++c)
            z += std::conj(targetFull_(r, c)) * u(r, c);
    fidelity = std::norm(z) / (h * h);

    // Leakage mask: guard-row, logical-column entries of U.
    ws.mask.resize(dim, dim);
    ws.mask.setZero();
    leakage = 0.0;
    for (int c = 0; c < dim; ++c) {
        if (!system_->isLogicalIndex(c))
            continue;
        for (int r = 0; r < dim; ++r) {
            if (!system_->isLogicalIndex(r)) {
                ws.mask(r, c) = u(r, c);
                leakage += std::norm(u(r, c));
            }
        }
    }
    leakage /= h;

    // Backward partials: W_j = V^dag S_j and Y_j = mask^dag S_j where
    // S_j = U_{N-1} ... U_{j+1}.
    ws.wback[segments_ - 1].copyFrom(targetDagger_);
    daggerInto(ws.yback[segments_ - 1], ws.mask);
    for (int j = segments_ - 1; j > 0; --j) {
        mulInto(ws.wback[j - 1], ws.wback[j], ws.props[j]);
        mulInto(ws.yback[j - 1], ws.yback[j], ws.props[j]);
    }

    // Phase 2 (parallel over segments): every gradient column [*][j]
    // depends only on the serially-computed fwd/wback/yback products
    // (read-only here) and the segment's own du[j], so segments fan
    // out with per-lane pw/py scratch; each invocation writes the
    // disjoint grad[k][j] entries of its own segment.
    zeroGrad(grad, nk, segments_);
    auto segment_gradient = [&](std::size_t j, int lane) {
        GrapeWorkspace::LaneScratch &ls =
            ws.lanes[static_cast<std::size_t>(lane)];
        const std::uint64_t before = probing ? ws.allocProbe() : 0;
        // Exact per-segment derivative: with U_total = S_j U_j A_{j-1},
        // dz/dc = Tr(V^dag S_j dU_j A_{j-1}) = Tr((A_{j-1} W_j) dU_j),
        // where dU_j is the Van Loan directional derivative of the
        // segment exponential.
        if (j > 0) {
            mulInto(ls.pw, ws.fwd[j - 1], ws.wback[j]);
            mulInto(ls.py, ws.fwd[j - 1], ws.yback[j]);
        } else {
            ls.pw.copyFrom(ws.wback[0]);
            ls.py.copyFrom(ws.yback[0]);
        }
        for (std::size_t k = 0; k < nk; ++k) {
            const CMatrix &du = ws.du[j][k];
            const CMatrix::Scalar dz = traceOfProduct(ls.pw, du);
            const CMatrix::Scalar dl_tr = traceOfProduct(ls.py, du);
            const double df =
                2.0 * std::real(std::conj(z) * dz) / (h * h);
            const double dl = 2.0 / h * std::real(dl_tr);
            grad[k][j] = -df + opts_.leakageWeight * dl;
        }
        if (probing)
            ws.laneAllocs[static_cast<std::size_t>(lane)] +=
                ws.allocProbe() - before;
    };
    pool.parallelFor(0, static_cast<std::size_t>(segments_),
                     std::ref(segment_gradient));
    return (1.0 - fidelity) + opts_.leakageWeight * leakage;
}

double
GrapeOptimizer::objectiveAndGradientNaive(
    const std::vector<std::vector<double>> &controls,
    std::vector<std::vector<double>> &grad, double &fidelity,
    double &leakage) const
{
    const int dim = system_->dim();
    const double h = system_->logicalDim();
    const auto &hc = system_->controls();
    const auto props = propagators(controls);

    // Forward cumulative products A_j = U_j ... U_0.
    std::vector<CMatrix> fwd(segments_);
    fwd[0] = props[0];
    for (int j = 1; j < segments_; ++j)
        fwd[j] = props[j] * fwd[j - 1];
    const CMatrix &u = fwd[segments_ - 1];

    const CMatrix::Scalar z = (targetFull_.dagger() * u).trace();
    fidelity = std::norm(z) / (h * h);

    // Leakage mask: guard-row, logical-column entries of U.
    CMatrix mask(dim, dim);
    leakage = 0.0;
    for (int c = 0; c < dim; ++c) {
        if (!system_->isLogicalIndex(c))
            continue;
        for (int r = 0; r < dim; ++r) {
            if (!system_->isLogicalIndex(r)) {
                mask(r, c) = u(r, c);
                leakage += std::norm(u(r, c));
            }
        }
    }
    leakage /= h;

    // Backward partials: W_j = V^dag S_j and Y_j = mask^dag S_j where
    // S_j = U_{N-1} ... U_{j+1}.
    std::vector<CMatrix> wback(segments_), yback(segments_);
    wback[segments_ - 1] = targetFull_.dagger();
    yback[segments_ - 1] = mask.dagger();
    for (int j = segments_ - 1; j > 0; --j) {
        wback[j - 1] = wback[j] * props[j];
        yback[j - 1] = yback[j] * props[j];
    }

    grad.assign(hc.size(), std::vector<double>(segments_, 0.0));
    for (int j = 0; j < segments_; ++j) {
        const CMatrix prefix = j > 0 ? fwd[j - 1]
                                     : CMatrix::identity(dim);
        const CMatrix pw = prefix * wback[j];
        const CMatrix py = prefix * yback[j];
        // Segment generator -i dt (H0 + sum_k c_k Hc_k).
        CMatrix hseg = system_->drift();
        for (std::size_t k = 0; k < hc.size(); ++k)
            hseg += hc[k] * CMatrix::Scalar(controls[k][j]);
        const CMatrix a_gen = hseg * CMatrix::Scalar(0.0, -dt_);
        for (std::size_t k = 0; k < hc.size(); ++k) {
            const CMatrix du = expmDirectional(
                a_gen, hc[k] * CMatrix::Scalar(0.0, -dt_));
            CMatrix::Scalar dz = 0.0, dl_tr = 0.0;
            for (int r = 0; r < dim; ++r) {
                for (int c = 0; c < dim; ++c) {
                    dz += pw(r, c) * du(c, r);
                    dl_tr += py(r, c) * du(c, r);
                }
            }
            const double df =
                2.0 * std::real(std::conj(z) * dz) / (h * h);
            const double dl = 2.0 / h * std::real(dl_tr);
            grad[k][j] = -df + opts_.leakageWeight * dl;
        }
    }
    return (1.0 - fidelity) + opts_.leakageWeight * leakage;
}

GrapeResult
GrapeOptimizer::run() const
{
    Rng rng(opts_.seed);
    const double amp = opts_.initFraction * system_->maxAmplitude();
    std::vector<std::vector<double>> init(
        numControls(), std::vector<double>(segments_, 0.0));
    for (auto &row : init)
        for (auto &v : row)
            v = rng.nextDouble(-amp, amp);
    return runFrom(std::move(init));
}

GrapeResult
GrapeOptimizer::runFrom(std::vector<std::vector<double>> controls) const
{
    QFATAL_IF(static_cast<int>(controls.size()) != numControls(),
              "bad initial control count");
    for (auto &row : controls) {
        QFATAL_IF(static_cast<int>(row.size()) != segments_,
                  "bad initial segment count");
    }

    const double bound = system_->maxAmplitude();
    // Adam state.
    std::vector<std::vector<double>> m(
        controls.size(), std::vector<double>(segments_, 0.0));
    std::vector<std::vector<double>> v = m;
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-9;

    GrapeResult best;
    best.controls = controls;
    std::vector<std::vector<double>> grad;
    GrapeWorkspace ws; // shared across iterations: warm after iter 1
    for (int it = 1; it <= opts_.maxIterations; ++it) {
        double fid = 0.0, leak = 0.0;
        objectiveAndGradient(controls, grad, fid, leak, ws);
        if (fid > best.fidelity) {
            best.fidelity = fid;
            best.leakage = leak;
            best.controls = controls;
        }
        best.iterations = it;
        if (fid >= opts_.targetFidelity) {
            best.converged = true;
            break;
        }
        const double bc1 = 1.0 - std::pow(beta1, it);
        const double bc2 = 1.0 - std::pow(beta2, it);
        for (std::size_t k = 0; k < controls.size(); ++k) {
            for (int j = 0; j < segments_; ++j) {
                m[k][j] = beta1 * m[k][j] + (1 - beta1) * grad[k][j];
                v[k][j] = beta2 * v[k][j] +
                          (1 - beta2) * grad[k][j] * grad[k][j];
                const double step = opts_.learningRate *
                                    (m[k][j] / bc1) /
                                    (std::sqrt(v[k][j] / bc2) + eps);
                controls[k][j] = std::clamp(controls[k][j] - step,
                                            -bound, bound);
            }
        }
    }
    // Report the best point seen (Adam is not monotone).
    if (!best.converged) {
        double fid = 0.0, leak = 0.0;
        evaluate(best.controls, fid, leak);
        best.fidelity = fid;
        best.leakage = leak;
        best.converged = fid >= opts_.targetFidelity;
    }
    return best;
}

} // namespace qompress
