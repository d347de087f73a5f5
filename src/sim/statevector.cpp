#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoa::sim {

namespace {

/** Inserts a 0 at the bit position of @p bit: enumerate pair bases by
 *  mapping k in [0, 2^{n-1}) to the k-th index with that bit clear. */
inline std::uint64_t
expandBit(std::uint64_t k, std::uint64_t bit)
{
    std::uint64_t low = k & (bit - 1);
    return ((k - low) << 1) | low;
}

/** Inserts 0s at both bit positions (masks must differ). */
inline std::uint64_t
expandTwoBits(std::uint64_t k, std::uint64_t bit_a, std::uint64_t bit_b)
{
    std::uint64_t lo = std::min(bit_a, bit_b);
    std::uint64_t hi = std::max(bit_a, bit_b);
    return expandBit(expandBit(k, lo), hi);
}

/**
 * RX on one amplitude pair, a0 = (x0, y0) and a1 = (x1, y1), with
 * c = cos(θ/2) and m = -sin(θ/2): the operations, in order, of the RX
 * kernel's c·a0 + (0, m)·a1 and (0, m)·a0 + c·a1.  The 0·x terms are
 * the complex product's; they decide the sign of zero results.
 */
inline void
rxButterfly(double *a0, double *a1, double c, double m)
{
    const double x0 = a0[0], y0 = a0[1];
    const double x1 = a1[0], y1 = a1[1];
    a0[0] = c * x0 + (0.0 * x1 - m * y1);
    a0[1] = c * y0 + (0.0 * y1 + m * x1);
    a1[0] = (0.0 * x0 - m * y0) + c * x1;
    a1[1] = (0.0 * y0 + m * x0) + c * y1;
}

/** Log2 of the amplitudes applyMixer() keeps in one L1-sized block
 *  (2^11 amplitudes = 32 KiB); fixed, not a knob. */
constexpr int kMixerBlockQubits = 11;

// The two mixer loops take c and m by value: read through a reference
// or a closure, every store to a[] could alias them and force a reload
// per butterfly.

/** RX on qubits 0..low-1 of each 2^low-amplitude block in [begin, end),
 *  which starts and ends on a block boundary: an outer stride of 2·bit
 *  and an inner run of bit consecutive indices. */
void
rxLowQubits(double *a, std::uint64_t begin, std::uint64_t end, int low,
            double c, double m)
{
    const std::uint64_t block = 1ULL << low;
    for (std::uint64_t start = begin; start < end; start += block)
        for (int q = 0; q < low; ++q) {
            const std::uint64_t bit = 1ULL << q;
            for (std::uint64_t base = start; base < start + block;
                 base += 2 * bit)
                for (std::uint64_t i = base; i < base + bit; ++i)
                    rxButterfly(a + 2 * i, a + 2 * (i + bit), c, m);
        }
}

/** RX on the pairs (i, i + bit) whose pair index, i with @p bit
 *  removed, lies in [kb, ke): runs of consecutive i, one expandBit()
 *  per run. */
void
rxPairRange(double *a, std::uint64_t kb, std::uint64_t ke,
            std::uint64_t bit, double c, double m)
{
    for (std::uint64_t k = kb; k < ke;) {
        const std::uint64_t run = std::min(ke - k, bit - (k & (bit - 1)));
        const std::uint64_t i0 = expandBit(k, bit);
        for (std::uint64_t i = i0; i < i0 + run; ++i)
            rxButterfly(a + 2 * i, a + 2 * (i + bit), c, m);
        k += run;
    }
}

void
checkLevelCount(std::size_t levels, std::size_t states)
{
    QAOA_CHECK(levels == states,
               "level table covers " << levels << " states, not " << states);
}

} // namespace

Statevector::Statevector(int num_qubits, const run::RunGuard *guard)
    : num_qubits_(num_qubits), guard_(guard)
{
    const std::uint64_t bytes = allocationBytes(num_qubits);
    if (guard_)
        guard_->checkAllocation("statevector", bytes);
    amps_.assign(1ULL << num_qubits, Complex{0.0, 0.0});
    amps_[0] = Complex{1.0, 0.0};
}

std::uint64_t
Statevector::allocationBytes(int num_qubits)
{
    QAOA_CHECK(num_qubits >= 1 && num_qubits <= 26,
               "statevector supports 1..26 qubits, got " << num_qubits);
    return sizeof(Complex) * (1ULL << num_qubits);
}

Complex
Statevector::amplitude(std::uint64_t index) const
{
    QAOA_CHECK(index < amps_.size(), "basis index out of range");
    return amps_[index];
}

void
Statevector::applyMatrix1q(const Matrix2 &m, int q)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::uint64_t j = i | bit;
            Complex a0 = amps_[i];
            Complex a1 = amps_[j];
            amps_[i] = m[0] * a0 + m[1] * a1;
            amps_[j] = m[2] * a0 + m[3] * a1;
        }
    });
}

void
Statevector::applyMatrix2q(const Matrix4 &m, int q_low, int q_high)
{
    QAOA_CHECK(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                   q_high < num_qubits_ && q_low != q_high,
               "invalid two-qubit operands");
    const std::uint64_t bl = 1ULL << q_low;
    const std::uint64_t bh = 1ULL << q_high;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            // Basis offsets within the 4-dim subspace, index = (high, low).
            std::uint64_t i00 = expandTwoBits(k, bl, bh);
            std::uint64_t i01 = i00 | bl;
            std::uint64_t i10 = i00 | bh;
            std::uint64_t i11 = i00 | bl | bh;
            Complex a00 = amps_[i00], a01 = amps_[i01];
            Complex a10 = amps_[i10], a11 = amps_[i11];
            amps_[i00] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
            amps_[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
            amps_[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
            amps_[i11] =
                m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
        }
    });
}

void
Statevector::applyDiag1q(int q, Complex d0, Complex d1)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] *= (i & bit) ? d1 : d0;
    });
}

void
Statevector::applyDiag2q(int q_low, int q_high, Complex d00, Complex d01,
                         Complex d10, Complex d11)
{
    QAOA_CHECK(q_low >= 0 && q_low < num_qubits_ && q_high >= 0 &&
                   q_high < num_qubits_ && q_low != q_high,
               "invalid two-qubit operands");
    const std::uint64_t bl = 1ULL << q_low;
    const std::uint64_t bh = 1ULL << q_high;
    const Complex d[4] = {d00, d01, d10, d11};
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            unsigned sub = ((i & bh) ? 2u : 0u) | ((i & bl) ? 1u : 0u);
            amps_[i] *= d[sub];
        }
    });
}

void
Statevector::applyXKernel(int q)
{
    const std::uint64_t bit = 1ULL << q;
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::swap(amps_[i], amps_[i | bit]);
        }
    });
}

void
Statevector::applyHKernel(int q)
{
    const std::uint64_t bit = 1ULL << q;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::uint64_t j = i | bit;
            Complex a0 = amps_[i];
            Complex a1 = amps_[j];
            amps_[i] = inv_sqrt2 * (a0 + a1);
            amps_[j] = inv_sqrt2 * (a0 - a1);
        }
    });
}

void
Statevector::applyRXKernel(int q, double theta)
{
    const std::uint64_t bit = 1ULL << q;
    const double c = std::cos(theta / 2.0);
    const Complex mis{0.0, -std::sin(theta / 2.0)};
    par::parallelFor(0, amps_.size() >> 1,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t i = expandBit(k, bit);
            std::uint64_t j = i | bit;
            Complex a0 = amps_[i];
            Complex a1 = amps_[j];
            amps_[i] = c * a0 + mis * a1;
            amps_[j] = mis * a0 + c * a1;
        }
    });
}

void
Statevector::applyMixer(double beta)
{
    static_assert(par::kChunkSize % (1ULL << kMixerBlockQubits) == 0,
                  "parallel chunks must split on mixer blocks");
    if (guard_)
        guard_->poll("statevector mixer");
    const double theta = 2.0 * beta;
    const double c = std::cos(theta / 2.0);
    const double m = -std::sin(theta / 2.0);
    double *a = reinterpret_cast<double *>(amps_.data());
    const std::uint64_t size = amps_.size();
    const int low = std::min(num_qubits_, kMixerBlockQubits);

    // Qubits 0..low-1, block by block: a block holds both amplitudes of
    // every pair of these qubits, so it stays in L1 across them.
    par::parallelFor(0, size, [&](std::uint64_t b, std::uint64_t e) {
        rxLowQubits(a, b, e, low, c, m);
    });
    // Higher qubits, one full sweep each.
    for (int q = low; q < num_qubits_; ++q)
        par::parallelFor(0, size >> 1, [&](std::uint64_t kb,
                                           std::uint64_t ke) {
            rxPairRange(a, kb, ke, 1ULL << q, c, m);
        });
}

void
Statevector::applyCnotKernel(int control, int target)
{
    const std::uint64_t bc = 1ULL << control;
    const std::uint64_t bt = 1ULL << target;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t base = expandTwoBits(k, bc, bt);
            std::swap(amps_[base | bc], amps_[base | bc | bt]);
        }
    });
}

void
Statevector::applySwapKernel(int a, int b)
{
    const std::uint64_t ba = 1ULL << a;
    const std::uint64_t bb = 1ULL << b;
    par::parallelFor(0, amps_.size() >> 2,
                     [&](std::uint64_t kb, std::uint64_t ke) {
        for (std::uint64_t k = kb; k < ke; ++k) {
            std::uint64_t base = expandTwoBits(k, ba, bb);
            std::swap(amps_[base | ba], amps_[base | bb]);
        }
    });
}

void
Statevector::apply(const circuit::Gate &g)
{
    using circuit::GateType;
    switch (g.type) {
      case GateType::MEASURE:
      case GateType::BARRIER:
        return;
      // Diagonal fast paths: one multiply per amplitude, no pairing.
      case GateType::Z:
        applyDiag1q(g.q0, Complex{1.0, 0.0}, Complex{-1.0, 0.0});
        return;
      case GateType::RZ:
        applyDiag1q(g.q0, expi(-g.params[0] / 2.0), expi(g.params[0] / 2.0));
        return;
      case GateType::U1:
        applyDiag1q(g.q0, Complex{1.0, 0.0}, expi(g.params[0]));
        return;
      case GateType::CZ:
        applyDiag2q(g.q0, g.q1, Complex{1.0, 0.0}, Complex{1.0, 0.0},
                    Complex{1.0, 0.0}, Complex{-1.0, 0.0});
        return;
      case GateType::CPHASE: {
        Complex phase = expi(g.params[0]);
        applyDiag2q(g.q0, g.q1, Complex{1.0, 0.0}, phase, phase,
                    Complex{1.0, 0.0});
        return;
      }
      // Dedicated pair/permutation kernels.
      case GateType::X: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyXKernel(g.q0);
        return;
      }
      case GateType::H: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyHKernel(g.q0);
        return;
      }
      case GateType::RX: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_, "qubit out of range");
        applyRXKernel(g.q0, g.params[0]);
        return;
      }
      case GateType::CNOT: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_ && g.q1 >= 0 &&
                       g.q1 < num_qubits_ && g.q0 != g.q1,
                   "invalid two-qubit operands");
        applyCnotKernel(g.q0, g.q1);
        return;
      }
      case GateType::SWAP: {
        QAOA_CHECK(g.q0 >= 0 && g.q0 < num_qubits_ && g.q1 >= 0 &&
                       g.q1 < num_qubits_ && g.q0 != g.q1,
                   "invalid two-qubit operands");
        applySwapKernel(g.q0, g.q1);
        return;
      }
      // Generic dense-matrix fallback (Y, RY, U2, U3).
      default:
        if (g.arity() == 1) {
            applyMatrix1q(gateMatrix1q(g), g.q0);
        } else {
            // gateMatrix2q() is in |q1 q0> ordering: operand q0 is the
            // low bit.
            applyMatrix2q(gateMatrix2q(g), g.q0, g.q1);
        }
        return;
    }
}

void
Statevector::apply(const circuit::Circuit &circuit)
{
    QAOA_CHECK(circuit.numQubits() <= num_qubits_,
               "circuit register larger than statevector");
    for (const circuit::Gate &g : circuit.gates()) {
        if (guard_)
            guard_->poll("statevector circuit sweep");
        apply(g);
    }
}

template <typename Level>
void
Statevector::loadByLevel(const std::vector<Level> &level,
                         const std::vector<Complex> &table)
{
    checkLevelCount(level.size(), amps_.size());
    if (guard_)
        guard_->poll("statevector level load");
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] = table[level[i]];
    });
}

template <typename Level>
void
Statevector::applyPhasePowers(const std::vector<Level> &level,
                              Complex phase)
{
    checkLevelCount(level.size(), amps_.size());
    if (guard_)
        guard_->poll("statevector phase powers");
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            Complex a = amps_[i];
            for (Level k = 0; k < level[i]; ++k)
                a *= phase;
            amps_[i] = a;
        }
    });
}

template <typename Level>
double
Statevector::levelExpectation(const std::vector<Level> &level,
                              const std::vector<double> &value) const
{
    checkLevelCount(level.size(), amps_.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const double p = std::norm(amps_[i]);
        if (p > 0.0)
            sum += p * value[level[i]];
    }
    return sum;
}

// The two level widths of metrics::CutCounts.
template void Statevector::loadByLevel(const std::vector<std::uint8_t> &,
                                       const std::vector<Complex> &);
template void Statevector::loadByLevel(const std::vector<std::uint16_t> &,
                                       const std::vector<Complex> &);
template void
Statevector::applyPhasePowers(const std::vector<std::uint8_t> &, Complex);
template void
Statevector::applyPhasePowers(const std::vector<std::uint16_t> &, Complex);
template double
Statevector::levelExpectation(const std::vector<std::uint8_t> &,
                              const std::vector<double> &) const;
template double
Statevector::levelExpectation(const std::vector<std::uint16_t> &,
                              const std::vector<double> &) const;

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            probs[i] = std::norm(amps_[i]);
    });
    return probs;
}

double
Statevector::probabilityOfOne(int q) const
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    return par::parallelReduceSum(0, amps_.size(),
                                  [&](std::uint64_t b, std::uint64_t e) {
        double p = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            if (i & bit)
                p += std::norm(amps_[i]);
        return p;
    });
}

void
Statevector::collapse(int q, bool outcome)
{
    QAOA_CHECK(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::uint64_t bit = 1ULL << q;
    // Single fused sweep: zero the discarded branch while accumulating
    // the kept probability per chunk (deterministic combine order).
    double keep = par::parallelReduceSum(0, amps_.size(),
                                         [&](std::uint64_t b,
                                             std::uint64_t e) {
        double chunk_keep = 0.0;
        for (std::uint64_t i = b; i < e; ++i) {
            bool is_one = (i & bit) != 0;
            if (is_one == outcome)
                chunk_keep += std::norm(amps_[i]);
            else
                amps_[i] = Complex{0.0, 0.0};
        }
        return chunk_keep;
    });
    QAOA_CHECK(keep > 1e-15,
               "collapse onto zero-probability outcome on q" << q);
    const double scale = 1.0 / std::sqrt(keep);
    par::parallelFor(0, amps_.size(),
                     [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
            amps_[i] *= scale;
    });
}

Counts
Statevector::sampleCounts(std::uint64_t shots, Rng &rng) const
{
    // Inverse-CDF sampling over the cumulative distribution; O(log N) per
    // shot after an O(N) prefix pass.  The prefix sum stays serial: it is
    // a strict loop dependence and must be identical for any thread
    // count.
    std::vector<double> cdf(amps_.size());
    double acc = 0.0;
    std::size_t last_nonzero = 0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        double p = std::norm(amps_[i]);
        if (p > 0.0)
            last_nonzero = i;
        acc += p;
        cdf[i] = acc;
    }
    QAOA_CHECK(acc > 0.0, "sampling a zero statevector");
    Counts counts;
    for (std::uint64_t s = 0; s < shots; ++s) {
        double r = rng.uniformReal(0.0, acc);
        auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        std::uint64_t idx = static_cast<std::uint64_t>(
            std::distance(cdf.begin(), it));
        // A flat CDF tail (trailing zero-probability states) makes
        // upper_bound land past the last state that can actually occur;
        // clamp to it rather than to the raw last index, which would
        // credit shots to a zero-probability basis state.
        if (idx > last_nonzero)
            idx = last_nonzero;
        ++counts[idx];
    }
    return counts;
}

double
Statevector::norm() const
{
    return par::parallelReduceSum(0, amps_.size(),
                                  [&](std::uint64_t b, std::uint64_t e) {
        double n = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            n += std::norm(amps_[i]);
        return n;
    });
}

double
Statevector::overlap(const Statevector &other) const
{
    QAOA_CHECK(num_qubits_ == other.num_qubits_,
               "overlap of different-size statevectors");
    double re = par::parallelReduceSum(0, amps_.size(),
                                       [&](std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            acc += (std::conj(amps_[i]) * other.amps_[i]).real();
        return acc;
    });
    double im = par::parallelReduceSum(0, amps_.size(),
                                       [&](std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i)
            acc += (std::conj(amps_[i]) * other.amps_[i]).imag();
        return acc;
    });
    return std::norm(Complex{re, im});
}

Counts
runAndSample(const circuit::Circuit &circuit, std::uint64_t shots, Rng &rng)
{
    Statevector state(circuit.numQubits());
    state.apply(circuit);

    // Measurement map: classical bit <- qubit.
    std::vector<std::pair<int, int>> measures; // (qubit, cbit)
    for (const circuit::Gate &g : circuit.gates())
        if (g.type == circuit::GateType::MEASURE)
            measures.emplace_back(g.q0, g.cbit);

    Counts raw = state.sampleCounts(shots, rng);
    // No MEASURE gates: return raw basis counts rather than mapping
    // every shot onto classical bitstring 0.
    if (measures.empty())
        return raw;
    Counts mapped;
    for (const auto &[basis, count] : raw) {
        std::uint64_t bits = 0;
        for (const auto &[q, c] : measures)
            if ((basis >> q) & 1ULL)
                bits |= 1ULL << c;
        mapped[bits] += count;
    }
    return mapped;
}

} // namespace qaoa::sim
