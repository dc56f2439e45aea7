#include "src/isa/exec_kernels.h"

#include <algorithm>
#include <utility>

#include "src/arch/decompose.h"
#include "src/common/logging.h"

// The AVX2 variants are compiled into every x86 build with the target
// attribute and chosen at run time (hostHasAvx2), so a generic build
// runs them on any AVX2 host and never on another.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define BITFUSION_X86_AVX2 1
#include <immintrin.h>
#endif

// The portable unit-stride loops are written so the compiler can
// vectorize them: independent lanes, reassociable (wraparound)
// accumulation, and range bits ORed into one word. `#pragma omp simd`
// states that intent explicitly where the compiler accepts the
// pragma without -fopenmp's runtime (-fopenmp-simd, detected by
// CMake as BITFUSION_OPENMP_SIMD).
#if defined(BITFUSION_OPENMP_SIMD)
#define BF_SIMD_DOT                                                     \
    _Pragma("omp simd reduction(+ : acc) reduction(| : ab, wb)")
#define BF_SIMD_ROW _Pragma("omp simd reduction(| : ab)")
#else
#define BF_SIMD_DOT
#define BF_SIMD_ROW
#endif

namespace bitfusion {

namespace {

/**
 * Range bits of one operand: v - min in wraparound arithmetic. Every
 * representable range is [min, min + 2^bits - 1], so v is in range
 * exactly when these bits have nothing above the low `bits`; kernels
 * OR them over a whole tile and test once.
 */
inline std::uint64_t
rangeBits(std::int64_t v, std::int64_t min)
{
    return static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(min);
}

/** True when ORed range bits show an operand outside [min, max]. */
inline bool
outOfRange(std::uint64_t bits, std::int64_t min, std::int64_t max)
{
    return (bits & ~rangeBits(max, min)) != 0;
}

/** A tile's reduction, padded to kMaxFusedDims with outer unit dims. */
struct Reduction
{
    std::uint64_t it[kMaxFusedDims] = {1, 1, 1, 1};
    std::uint64_t as[kMaxFusedDims] = {0, 0, 0, 0};
    std::uint64_t ws[kMaxFusedDims] = {0, 0, 0, 0};
};

Reduction
padReduction(const MacTileArgs &t)
{
    Reduction r;
    const unsigned pad = kMaxFusedDims - t.dims;
    for (unsigned d = 0; d < t.dims; ++d) {
        r.it[pad + d] = t.iters[d];
        r.as[pad + d] = t.aStride[d];
        r.ws[pad + d] = t.wStride[d];
    }
    return r;
}

/** The first @p dims output loops, padded to kMaxOutDims. */
struct Outputs
{
    std::uint64_t it[kMaxOutDims] = {1, 1, 1};
    std::uint64_t as[kMaxOutDims] = {0, 0, 0};
    std::uint64_t ws[kMaxOutDims] = {0, 0, 0};
    std::uint64_t os[kMaxOutDims] = {0, 0, 0};
};

Outputs
padOutputs(const MacTileArgs &t, unsigned dims)
{
    Outputs u;
    const unsigned pad = kMaxOutDims - dims;
    for (unsigned d = 0; d < dims; ++d) {
        u.it[pad + d] = t.outIters[d];
        u.as[pad + d] = t.aOut[d];
        u.ws[pad + d] = t.wOut[d];
        u.os[pad + d] = t.oOut[d];
    }
    return u;
}

inline void
accumulate(std::int64_t &out, std::uint64_t acc)
{
    out = static_cast<std::int64_t>(static_cast<std::uint64_t>(out) + acc);
}

// ------------------------------------------------------------ dot order

/** The innermost reduction run of a dot-order tile. */
struct DotRun
{
    std::uint64_t n, aStep, wStep;
    std::int64_t aMin, wMin;
};

/** ORed range bits of both operand sides. */
struct RangeAcc
{
    std::uint64_t a = 0, w = 0;
};

/**
 * Portable dot product. Products and the accumulator are uint64
 * (wraparound): an exact two's-complement match for the reference
 * walk's int64 accumulation on every representable operand, and no
 * signed-overflow UB on out-of-range garbage (which only feeds the
 * range bits, never a result).
 */
std::uint64_t
dotPortable(const std::int64_t *a, const std::int64_t *w,
            const DotRun &run, RangeAcc &bits)
{
    std::uint64_t acc = 0, ab = 0, wb = 0;
    if (run.aStep == 1 && run.wStep == 1) {
        BF_SIMD_DOT
        for (std::uint64_t k = 0; k < run.n; ++k) {
            ab |= rangeBits(a[k], run.aMin);
            wb |= rangeBits(w[k], run.wMin);
            acc += static_cast<std::uint64_t>(a[k]) *
                   static_cast<std::uint64_t>(w[k]);
        }
    } else {
        for (std::uint64_t k = 0; k < run.n; ++k) {
            const std::int64_t av = a[k * run.aStep];
            const std::int64_t wv = w[k * run.wStep];
            ab |= rangeBits(av, run.aMin);
            wb |= rangeBits(wv, run.wMin);
            acc += static_cast<std::uint64_t>(av) *
                   static_cast<std::uint64_t>(wv);
        }
    }
    bits.a |= ab;
    bits.w |= wb;
    return acc;
}

/** Dot order: each output runs its whole reduction, innermost. */
bool
dotTile(const MacTileArgs &t)
{
    const Reduction r = padReduction(t);
    const Outputs u = padOutputs(t, t.outDims);
    const DotRun run{r.it[3], r.as[3], r.ws[3], t.aMin, t.wMin};
    RangeAcc bits;
    for (std::uint64_t u0 = 0; u0 < u.it[0]; ++u0) {
        for (std::uint64_t u1 = 0; u1 < u.it[1]; ++u1) {
            for (std::uint64_t u2 = 0; u2 < u.it[2]; ++u2) {
                const std::int64_t *a =
                    t.a + u0 * u.as[0] + u1 * u.as[1] + u2 * u.as[2];
                const std::int64_t *w =
                    t.w + u0 * u.ws[0] + u1 * u.ws[1] + u2 * u.ws[2];
                std::uint64_t acc = 0;
                for (std::uint64_t i0 = 0; i0 < r.it[0]; ++i0)
                    for (std::uint64_t i1 = 0; i1 < r.it[1]; ++i1)
                        for (std::uint64_t i2 = 0; i2 < r.it[2]; ++i2)
                            acc += dotPortable(
                                a + i0 * r.as[0] + i1 * r.as[1] +
                                    i2 * r.as[2],
                                w + i0 * r.ws[0] + i1 * r.ws[1] +
                                    i2 * r.ws[2],
                                run, bits);
                accumulate(t.o[u0 * u.os[0] + u1 * u.os[1] +
                               u2 * u.os[2]],
                           acc);
            }
        }
    }
    return outOfRange(bits.a, t.aMin, t.aMax) ||
           outOfRange(bits.w, t.wMin, t.wMax);
}

// ------------------------------------------------------------ row order

/** Outputs per row-kernel call (bounds rowTile's stack row). */
constexpr std::uint64_t kRowChunk = 256;

/**
 * One row-order step: for x < n, acc[x] += the reduction's product
 * sum with activations read at a + x * aStep. The reduction is
 * padded to kMaxFusedDims dimensions (outer unit dims).
 */
struct MacRowArgs
{
    const std::int64_t *a = nullptr;
    const std::int64_t *w = nullptr;
    std::uint64_t n = 0;
    std::uint64_t aStep = 1;
    Reduction red;
    std::int64_t aMin = 0, aMax = 0, wMin = 0, wMax = 0;
};

/** A row kernel; returns true when some operand was not
 *  representable (@p acc is then meaningless). */
using MacRowFn = bool (*)(const MacRowArgs &args, std::uint64_t *acc);

bool
macRowPortable(const MacRowArgs &r, std::uint64_t *acc)
{
    std::uint64_t ab = 0, wb = 0;
    const std::uint64_t n = r.n;
    for (std::uint64_t i0 = 0; i0 < r.red.it[0]; ++i0) {
        for (std::uint64_t i1 = 0; i1 < r.red.it[1]; ++i1) {
            for (std::uint64_t i2 = 0; i2 < r.red.it[2]; ++i2) {
                const std::int64_t *ap = r.a + i0 * r.red.as[0] +
                                         i1 * r.red.as[1] +
                                         i2 * r.red.as[2];
                const std::int64_t *wp = r.w + i0 * r.red.ws[0] +
                                         i1 * r.red.ws[1] +
                                         i2 * r.red.ws[2];
                for (std::uint64_t k = 0; k < r.red.it[3]; ++k) {
                    const std::int64_t wv = wp[k * r.red.ws[3]];
                    wb |= rangeBits(wv, r.wMin);
                    const std::uint64_t wu =
                        static_cast<std::uint64_t>(wv);
                    const std::int64_t *ak = ap + k * r.red.as[3];
                    if (r.aStep == 1) {
                        BF_SIMD_ROW
                        for (std::uint64_t x = 0; x < n; ++x) {
                            ab |= rangeBits(ak[x], r.aMin);
                            acc[x] +=
                                static_cast<std::uint64_t>(ak[x]) * wu;
                        }
                    } else {
                        for (std::uint64_t x = 0; x < n; ++x) {
                            const std::int64_t av = ak[x * r.aStep];
                            ab |= rangeBits(av, r.aMin);
                            acc[x] += static_cast<std::uint64_t>(av) * wu;
                        }
                    }
                }
            }
        }
    }
    return outOfRange(ab, r.aMin, r.aMax) ||
           outOfRange(wb, r.wMin, r.wMax);
}

/**
 * @p t with the operand roles exchanged: pointers, output and
 * reduction strides, and ranges. Products commute and each operand
 * keeps its own range, so a kernel computes the same sums and flags
 * the same tiles on either.
 */
MacTileArgs
swapRoles(const MacTileArgs &t)
{
    MacTileArgs s = t;
    std::swap(s.a, s.w);
    std::swap(s.aOut, s.wOut);
    std::swap(s.aStride, s.wStride);
    std::swap(s.aMin, s.wMin);
    std::swap(s.aMax, s.wMax);
    return s;
}

/**
 * Row order: the weight is fixed along the innermost output loop, so
 * a row of outputs accumulates together, one broadcast weight per
 * reduction step.
 */
template <MacRowFn Row>
bool
rowTile(const MacTileArgs &t)
{
    const unsigned last = t.outDims - 1;
    const Outputs u = padOutputs(t, last);
    MacRowArgs r;
    r.red = padReduction(t);
    r.aStep = t.aOut[last];
    r.aMin = t.aMin;
    r.aMax = t.aMax;
    r.wMin = t.wMin;
    r.wMax = t.wMax;
    const std::uint64_t n = t.outIters[last];
    const std::uint64_t oStep = t.oOut[last];

    bool bad = false;
    std::uint64_t acc[kRowChunk];
    for (std::uint64_t u0 = 0; u0 < u.it[0]; ++u0) {
        for (std::uint64_t u1 = 0; u1 < u.it[1]; ++u1) {
            for (std::uint64_t u2 = 0; u2 < u.it[2]; ++u2) {
                const std::int64_t *aRow =
                    t.a + u0 * u.as[0] + u1 * u.as[1] + u2 * u.as[2];
                r.w = t.w + u0 * u.ws[0] + u1 * u.ws[1] + u2 * u.ws[2];
                std::int64_t *oRow =
                    t.o + u0 * u.os[0] + u1 * u.os[1] + u2 * u.os[2];
                for (std::uint64_t x0 = 0; x0 < n; x0 += kRowChunk) {
                    r.n = std::min(kRowChunk, n - x0);
                    r.a = aRow + x0 * r.aStep;
                    std::fill_n(acc, r.n, 0);
                    bad = Row(r, acc) || bad;
                    for (std::uint64_t x = 0; x < r.n; ++x)
                        accumulate(oRow[(x0 + x) * oStep], acc[x]);
                }
            }
        }
    }
    return bad;
}

/**
 * Row order with the roles exchanged, for tiles whose activation is
 * fixed along the innermost output loop (FC/LSTM/RNN): the activation
 * is broadcast and the weight row is read.
 */
template <MacRowFn Row>
bool
swappedRowTile(const MacTileArgs &t)
{
    return rowTile<Row>(swapRoles(t));
}

// ----------------------------------------------------------------- AVX2

#if defined(BITFUSION_X86_AVX2)

/**
 * Mask selecting the first @p lanes (1..4) int64 lanes. Masked-out
 * lanes load as 0, which is representable under every config, so
 * they neither flag a range error nor add to a sum.
 */
__attribute__((target("avx2"))) inline __m256i
laneMask(std::uint64_t lanes)
{
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(lanes)),
        _mm256_setr_epi64x(0, 1, 2, 3));
}

/** OR of the four lanes of @p v. */
__attribute__((target("avx2"))) inline std::uint64_t
orLanes(__m256i v)
{
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    return lanes[0] | lanes[1] | lanes[2] | lanes[3];
}

/**
 * V vectors (4V outputs) of a row from column @p x, the accumulators
 * held in registers over the whole reduction. Unit-stride rows load
 * their activations; strided rows (strided conv) gather them. The
 * products use _mm256_mul_epi32 (sign-extended low-32 multiply),
 * exact for every in-range operand: representable values span at
 * most 17 bits. With Partial, the last vector covers only the lanes
 * in @p tail.
 */
template <unsigned V, bool Partial, bool Unit>
__attribute__((target("avx2"), always_inline)) inline void
rowBlockAvx2(const MacRowArgs &r, std::uint64_t x, __m256i tail,
             std::uint64_t *acc, __m256i &ab, std::uint64_t &wb)
{
    const std::uint64_t step = Unit ? 1 : r.aStep;
    const __m256i lanes = _mm256_setr_epi64x(
        0, static_cast<long long>(step), static_cast<long long>(2 * step),
        static_cast<long long>(3 * step));
    __m256i sum[V];
    for (unsigned v = 0; v < V; ++v)
        sum[v] = _mm256_setzero_si256();
    const __m256i aMin = _mm256_set1_epi64x(r.aMin);
    for (std::uint64_t i0 = 0; i0 < r.red.it[0]; ++i0) {
        for (std::uint64_t i1 = 0; i1 < r.red.it[1]; ++i1) {
            for (std::uint64_t i2 = 0; i2 < r.red.it[2]; ++i2) {
                const std::int64_t *ap =
                    r.a + x * step + i0 * r.red.as[0] +
                    i1 * r.red.as[1] + i2 * r.red.as[2];
                const std::int64_t *wp = r.w + i0 * r.red.ws[0] +
                                         i1 * r.red.ws[1] +
                                         i2 * r.red.ws[2];
                for (std::uint64_t k = 0; k < r.red.it[3]; ++k) {
                    const std::int64_t wv = wp[k * r.red.ws[3]];
                    wb |= rangeBits(wv, r.wMin);
                    const __m256i wb4 = _mm256_set1_epi64x(wv);
                    const std::int64_t *ak = ap + k * r.red.as[3];
                    for (unsigned v = 0; v < V; ++v) {
                        const long long *src =
                            reinterpret_cast<const long long *>(
                                ak + 4 * v * step);
                        const bool masked = Partial && v + 1 == V;
                        __m256i av;
                        if (Unit)
                            av = masked
                                     ? _mm256_maskload_epi64(src, tail)
                                     : _mm256_loadu_si256(
                                           reinterpret_cast<
                                               const __m256i *>(src));
                        else
                            av = masked ? _mm256_mask_i64gather_epi64(
                                              _mm256_setzero_si256(),
                                              src, lanes, tail, 8)
                                        : _mm256_i64gather_epi64(
                                              src, lanes, 8);
                        ab = _mm256_or_si256(ab,
                                             _mm256_sub_epi64(av, aMin));
                        sum[v] = _mm256_add_epi64(
                            sum[v], _mm256_mul_epi32(av, wb4));
                    }
                }
            }
        }
    }
    for (unsigned v = 0; v < V; ++v) {
        long long *dst = reinterpret_cast<long long *>(acc + x + 4 * v);
        if (Partial && v + 1 == V) {
            _mm256_maskstore_epi64(
                dst, tail,
                _mm256_add_epi64(_mm256_maskload_epi64(dst, tail),
                                 sum[v]));
        } else {
            __m256i *d = reinterpret_cast<__m256i *>(dst);
            _mm256_storeu_si256(
                d, _mm256_add_epi64(_mm256_loadu_si256(d), sum[v]));
        }
    }
}

template <bool Unit>
__attribute__((target("avx2"))) bool
rowAvx2(const MacRowArgs &r, std::uint64_t *acc)
{
    __m256i ab = _mm256_setzero_si256();
    std::uint64_t wb = 0;
    std::uint64_t x = 0;
    const __m256i none = _mm256_setzero_si256();
    for (; x + 16 <= r.n; x += 16)
        rowBlockAvx2<4, false, Unit>(r, x, none, acc, ab, wb);
    if (x < r.n) {
        // The last 1..15 outputs: ceil(m / 4) vectors, the last one
        // masked to the lanes it covers.
        const std::uint64_t m = r.n - x;
        const __m256i tail = laneMask(m % 4 == 0 ? 4 : m % 4);
        switch ((m + 3) / 4) {
          case 1: rowBlockAvx2<1, true, Unit>(r, x, tail, acc, ab, wb); break;
          case 2: rowBlockAvx2<2, true, Unit>(r, x, tail, acc, ab, wb); break;
          case 3: rowBlockAvx2<3, true, Unit>(r, x, tail, acc, ab, wb); break;
          default: rowBlockAvx2<4, true, Unit>(r, x, tail, acc, ab, wb);
        }
    }
    return outOfRange(orLanes(ab), r.aMin, r.aMax) ||
           outOfRange(wb, r.wMin, r.wMax);
}

bool
macRowAvx2(const MacRowArgs &r, std::uint64_t *acc)
{
    return r.aStep == 1 ? rowAvx2<true>(r, acc) : rowAvx2<false>(r, acc);
}

#endif // BITFUSION_X86_AVX2

} // namespace

bool
hostHasAvx2()
{
#if defined(BITFUSION_X86_AVX2)
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return has;
#else
    return false;
#endif
}

MacTileFn
macTileKernel(const MacTileArgs &shape, bool avx2)
{
    BF_ASSERT(shape.dims >= 1 && shape.dims <= kMaxFusedDims,
              "fused reduction depth ", shape.dims, " out of range");
    BF_ASSERT(shape.outDims <= kMaxOutDims, "fused output depth ",
              shape.outDims, " out of range");
    // The one-test range check needs ranges of 2^bits values.
    for (std::uint64_t span : {rangeBits(shape.aMax, shape.aMin),
                               rangeBits(shape.wMax, shape.wMin)})
        BF_ASSERT((span & (span + 1)) == 0,
                  "operand range is not a power-of-two span");

    // Row order when either operand is fixed along the innermost
    // output loop; a fixed weight first (no role swap).
    const unsigned last = shape.outDims > 0 ? shape.outDims - 1 : 0;
    const bool row = shape.outDims > 0 && shape.wOut[last] == 0;
    const bool swapped =
        !row && shape.outDims > 0 && shape.aOut[last] == 0;
#if defined(BITFUSION_X86_AVX2)
    if (avx2 && hostHasAvx2()) {
        if (row)
            return &rowTile<&macRowAvx2>;
        if (swapped)
            return &swappedRowTile<&macRowAvx2>;
    }
#else
    (void)avx2;
#endif
    if (row)
        return &rowTile<&macRowPortable>;
    if (swapped)
        return &swappedRowTile<&macRowPortable>;
    return &dotTile;
}

void
reportUnrepresentable(const MacTileArgs &args, const FusionConfig &cfg)
{
    // Re-walk in iteration order, outputs outermost; the first
    // out-of-range pair goes through decomposeMultiply, whose
    // representability assert is the reference walk's exact failure.
    const Reduction r = padReduction(args);
    auto walkReduction = [&](const std::int64_t *a, const std::int64_t *w) {
        for (std::uint64_t i0 = 0; i0 < r.it[0]; ++i0) {
            for (std::uint64_t i1 = 0; i1 < r.it[1]; ++i1) {
                for (std::uint64_t i2 = 0; i2 < r.it[2]; ++i2) {
                    for (std::uint64_t i3 = 0; i3 < r.it[3]; ++i3) {
                        const std::int64_t av =
                            a[i0 * r.as[0] + i1 * r.as[1] +
                              i2 * r.as[2] + i3 * r.as[3]];
                        const std::int64_t wv =
                            w[i0 * r.ws[0] + i1 * r.ws[1] +
                              i2 * r.ws[2] + i3 * r.ws[3]];
                        if (!representable(av, cfg.aBits, cfg.aSigned) ||
                            !representable(wv, cfg.wBits, cfg.wSigned))
                            decomposeMultiply(av, wv, cfg);
                    }
                }
            }
        }
    };
    const Outputs u = padOutputs(args, args.outDims);
    for (std::uint64_t u0 = 0; u0 < u.it[0]; ++u0)
        for (std::uint64_t u1 = 0; u1 < u.it[1]; ++u1)
            for (std::uint64_t u2 = 0; u2 < u.it[2]; ++u2)
                walkReduction(
                    args.a + u0 * u.as[0] + u1 * u.as[1] + u2 * u.as[2],
                    args.w + u0 * u.ws[0] + u1 * u.ws[1] + u2 * u.ws[2]);
    BF_PANIC("fused MAC kernel flagged an unrepresentable operand, "
             "but the re-walk found none");
}

} // namespace bitfusion
