#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

// The explicit-FMA kernels need x86-64 intrinsics and per-function target
// attributes; everything else runs the portable kernel.
#if defined(__x86_64__) && defined(__GNUC__)
#define PASSFLOW_GEMM_X86 1
#include <immintrin.h>
#endif

namespace passflow::nn::gemm {

namespace {

// ---------------------------------------------------------------- blocked
//
// GotoBLAS-style blocking, with only B packed. A register tile computes an
// MR x NR block of C held entirely in registers while streaming MR elements
// of A, read where they lie through a row stride and a k stride, and one
// packed row of B (NR floats) per k step. B panels are zero-padded to NR
// multiples, and a tile's rows past the last valid one re-read that row, so
// the tile never branches on tails; the write-back clips to the valid
// region instead.
//
// Every tile computes each output element the same way: a multiply-add
// chain over the k block in ascending k, starting from zero, then stored
// (first k block) or added to C (later ones). The FMA tiles fuse each
// multiply-add, so all of them give the same bits whatever their shape;
// the portable tile leaves fusing to the compiler, which on baseline x86-64
// rounds each product first.
//
// L2-sized A block, L1-sized B panel strips, L3-sized B block.
constexpr std::size_t kMC = 128;
constexpr std::size_t kKC = 384;
constexpr std::size_t kNC = 4096;

constexpr std::size_t round_up(std::size_t v, std::size_t q) {
  return (v + q - 1) / q * q;
}

// The B pack buffer is thread_local so repeated GEMM calls (every layer of
// every pass) reuse one allocation per calling thread. It is packed before
// the ic loop, so the OpenMP workers inside that loop only read it.
std::vector<float>& tls_bpack() {
  static thread_local std::vector<float> buf;
  return buf;
}

// Writes the valid mr x nr corner of a full tile (row stride tile_nr) into
// C, or adds it to C.
void store_clipped(const float* tile, std::size_t tile_nr, float* c,
                   std::size_t ldc, std::size_t mr, std::size_t nr,
                   bool accumulate) {
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* trow = tile + i * tile_nr;
    if (accumulate) {
#pragma omp simd
      for (std::size_t j = 0; j < nr; ++j) crow[j] += trow[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < nr; ++j) crow[j] = trow[j];
    }
  }
}

// Hosts with neither AVX-512 nor AVX2+FMA, and everything off x86-64.
struct PortableTile {
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNR = 16;

  static void run(std::size_t kc, const float* a, std::size_t rs,
                  std::size_t ks, const float* b, float* c, std::size_t ldc,
                  std::size_t mr, std::size_t nr, bool accumulate) {
    const float* arow[kMR];
    for (std::size_t i = 0; i < kMR; ++i) {
      arow[i] = a + std::min(i, mr - 1) * rs;
    }
    float acc[kMR * kNR] = {};
    for (std::size_t p = 0; p < kc; ++p) {
      const float* bv = b + p * kNR;
      for (std::size_t i = 0; i < kMR; ++i) {
        const float ai = arow[i][p * ks];
        float* crow = acc + i * kNR;
#pragma omp simd
        for (std::size_t j = 0; j < kNR; ++j) crow[j] += ai * bv[j];
      }
    }
    store_clipped(acc, kNR, c, ldc, mr, nr, accumulate);
  }
};

#ifdef PASSFLOW_GEMM_X86
// 8 x 32 in 16 zmm accumulators: two B loads and eight broadcasts feed 16
// independent FMAs per k step. Products of fewer than 8 rows re-read their
// last row up to 8.
struct Avx512Tile {
  static constexpr std::size_t kMR = 8;
  static constexpr std::size_t kNR = 32;

  __attribute__((target("avx512f"))) static void run(
      std::size_t kc, const float* a, std::size_t rs, std::size_t ks,
      const float* b, float* c, std::size_t ldc, std::size_t mr,
      std::size_t nr, bool accumulate) {
    const float* arow[kMR];
    for (std::size_t i = 0; i < kMR; ++i) {
      arow[i] = a + std::min(i, mr - 1) * rs;
    }
    __m512 acc[kMR][2];
    for (std::size_t i = 0; i < kMR; ++i) {
      acc[i][0] = _mm512_setzero_ps();
      acc[i][1] = _mm512_setzero_ps();
    }
    for (std::size_t p = 0; p < kc; ++p, b += kNR) {
      const std::size_t ap = p * ks;
      const __m512 b0 = _mm512_loadu_ps(b);
      const __m512 b1 = _mm512_loadu_ps(b + 16);
      for (std::size_t i = 0; i < kMR; ++i) {
        const __m512 ai = _mm512_set1_ps(arow[i][ap]);
        acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
        acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
      }
    }
    alignas(64) float tile[kMR * kNR];
    for (std::size_t i = 0; i < kMR; ++i) {
      _mm512_store_ps(tile + i * kNR, acc[i][0]);
      _mm512_store_ps(tile + i * kNR + 16, acc[i][1]);
    }
    store_clipped(tile, kNR, c, ldc, mr, nr, accumulate);
  }
};

// 4 x 16 in ymm: eight accumulators, two B loads and four broadcasts per k
// step, leaving room in AVX2's 16 registers.
struct Avx2Tile {
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNR = 16;

  __attribute__((target("avx2,fma"))) static void run(
      std::size_t kc, const float* a, std::size_t rs, std::size_t ks,
      const float* b, float* c, std::size_t ldc, std::size_t mr,
      std::size_t nr, bool accumulate) {
    const float* arow[kMR];
    for (std::size_t i = 0; i < kMR; ++i) {
      arow[i] = a + std::min(i, mr - 1) * rs;
    }
    __m256 acc[kMR][2];
    for (std::size_t i = 0; i < kMR; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < kc; ++p, b += kNR) {
      const std::size_t ap = p * ks;
      const __m256 b0 = _mm256_loadu_ps(b);
      const __m256 b1 = _mm256_loadu_ps(b + 8);
      for (std::size_t i = 0; i < kMR; ++i) {
        const __m256 ai = _mm256_broadcast_ss(arow[i] + ap);
        acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
      }
    }
    alignas(32) float tile[kMR * kNR];
    for (std::size_t i = 0; i < kMR; ++i) {
      _mm256_store_ps(tile + i * kNR, acc[i][0]);
      _mm256_store_ps(tile + i * kNR + 8, acc[i][1]);
    }
    store_clipped(tile, kNR, c, ldc, mr, nr, accumulate);
  }
};
#endif  // PASSFLOW_GEMM_X86

enum class Kernel { kPortable, kAvx2, kAvx512 };

// Chosen once, on first use, from the host's CPU features. No ifunc
// resolver is involved, so sanitizer and debug builds run the same kernel,
// and compute the same bits, as Release.
Kernel detect_kernel() {
#ifdef PASSFLOW_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Kernel::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Kernel::kAvx2;
  }
#endif
  return Kernel::kPortable;
}

Kernel host_kernel() {
  static const Kernel kernel = detect_kernel();
  return kernel;
}

// C[mc x nc] (stride ldc) = or += A * Bpack. A(i, p) is a[i * rs + p * ks];
// Bpack holds NR-wide panels packed as below.
template <class Tile>
void macro_kernel(std::size_t mc, std::size_t nc, std::size_t kc,
                  const float* a, std::size_t rs, std::size_t ks,
                  const float* bpack, float* c, std::size_t ldc,
                  bool accumulate) {
  for (std::size_t jr = 0; jr < nc; jr += Tile::kNR) {
    const float* bp = bpack + jr * kc;
    const std::size_t nr = std::min(Tile::kNR, nc - jr);
    for (std::size_t ir = 0; ir < mc; ir += Tile::kMR) {
      Tile::run(kc, a + ir * rs, rs, ks, bp, c + ir * ldc + jr, ldc,
                std::min(Tile::kMR, mc - ir), nr, accumulate);
    }
  }
}

// Generic blocked driver for the logical (m x k) * (k x n) product. The
// tiles read A(r, p) = a[r * rs + p * ks] in place, and b_at(p, c) is the
// element accessor the B pack reads through, which lets the one driver
// serve matmul, matmul_tn and matmul_nt: the strides and the packing step
// absorb the transposes. Summation over k runs in ascending order for
// every output element regardless of OpenMP thread count, so results are
// deterministic.
template <class Tile, class BGet>
void blocked_impl(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  std::size_t rs, std::size_t ks, BGet b_at, Matrix& out) {
  constexpr std::size_t kNR = Tile::kNR;
  static_assert(kMC % Tile::kMR == 0 && kNC % kNR == 0,
                "cache blocks must hold whole register tiles");
  out.resize(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    out.zero();
    return;
  }
  float* c = out.data();

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const bool accumulate = pc > 0;

      // Pack B(pc:pc+kc, jc:jc+nc) into NR-wide panels, zero-padded.
      std::vector<float>& bpack = tls_bpack();
      bpack.resize(round_up(nc, kNR) * kc);
      for (std::size_t jp = 0; jp < nc; jp += kNR) {
        float* panel = bpack.data() + jp * kc;
        const std::size_t nr = std::min(kNR, nc - jp);
        for (std::size_t p = 0; p < kc; ++p) {
          float* d = panel + p * kNR;
          for (std::size_t j = 0; j < nr; ++j) {
            d[j] = b_at(pc + p, jc + jp + j);
          }
          for (std::size_t j = nr; j < kNR; ++j) d[j] = 0.0f;
        }
      }
      const float* bpack_data = bpack.data();

      const std::ptrdiff_t mblocks =
          static_cast<std::ptrdiff_t>((m + kMC - 1) / kMC);
#pragma omp parallel for schedule(static) \
    if (mblocks > 1 && m * n * k > (std::size_t{1} << 20))
      for (std::ptrdiff_t icb = 0; icb < mblocks; ++icb) {
        const std::size_t ic = static_cast<std::size_t>(icb) * kMC;
        macro_kernel<Tile>(std::min(kMC, m - ic), nc, kc,
                           a + ic * rs + pc * ks, rs, ks, bpack_data,
                           c + ic * n + jc, n, accumulate);
      }
    }
  }
}

// Runs the product on the host's kernel.
template <class BGet>
void blocked(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t rs, std::size_t ks, BGet b_at, Matrix& out) {
  switch (host_kernel()) {
#ifdef PASSFLOW_GEMM_X86
    case Kernel::kAvx512:
      blocked_impl<Avx512Tile>(m, n, k, a, rs, ks, b_at, out);
      return;
    case Kernel::kAvx2:
      blocked_impl<Avx2Tile>(m, n, k, a, rs, ks, b_at, out);
      return;
#endif
    default:
      blocked_impl<PortableTile>(m, n, k, a, rs, ks, b_at, out);
      return;
  }
}

void gemm_nn_blocked(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* bd = b.data();
  blocked(m, n, k, a.data(), k, 1,
          [bd, n](std::size_t p, std::size_t c) { return bd[p * n + c]; },
          out);
}

void gemm_tn_blocked(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  const float* bd = b.data();
  blocked(m, n, k, a.data(), 1, m,
          [bd, n](std::size_t p, std::size_t c) { return bd[p * n + c]; },
          out);
}

void gemm_nt_blocked(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const float* bd = b.data();
  blocked(m, n, k, a.data(), k, 1,
          [bd, k](std::size_t p, std::size_t c) { return bd[c * k + p]; },
          out);
}

// ------------------------------------------------------------------ naive
// The original kernels, kept verbatim as the correctness reference.

void gemm_nn_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.resize(m, n);
  out.zero();
  const float* bd = b.data();
#pragma omp parallel for schedule(static) if (m * n * k > 16384)
  for (std::size_t r = 0; r < m; ++r) {
    const float* ar = a.row(r);
    float* outr = out.row(r);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = ar[kk];
      const float* br = bd + kk * n;
      for (std::size_t c = 0; c < n; ++c) outr[c] += av * br[c];
    }
  }
}

void gemm_tn_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  out.resize(m, n);
  out.zero();
  // out(r,c) = sum_kk a(kk,r) * b(kk,c). Parallelize over output rows;
  // each thread walks both inputs row-wise so access stays sequential.
#pragma omp parallel for schedule(static) if (m * n * k > 16384)
  for (std::size_t r = 0; r < m; ++r) {
    float* outr = out.row(r);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a(kk, r);
      const float* br = b.row(kk);
      for (std::size_t c = 0; c < n; ++c) outr[c] += av * br[c];
    }
  }
}

void gemm_nt_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  out.resize(m, n);
#pragma omp parallel for schedule(static) if (m * n * k > 16384)
  for (std::size_t r = 0; r < m; ++r) {
    const float* ar = a.row(r);
    float* outr = out.row(r);
    for (std::size_t c = 0; c < n; ++c) {
      const float* br = b.row(c);
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += ar[kk] * br[kk];
      outr[c] = acc;
    }
  }
}

// ------------------------------------------------------------------- blas
#ifdef PASSFLOW_HAS_BLAS
extern "C" void sgemm_(const char* transa, const char* transb, const int* m,
                       const int* n, const int* k, const float* alpha,
                       const float* a, const int* lda, const float* b,
                       const int* ldb, const float* beta, float* c,
                       const int* ldc);

// Row-major C = op(A) op(B) maps onto column-major C^T = op(B)^T op(A)^T:
// a row-major (r x c) buffer read column-major is its transpose, so we hand
// sgemm the B buffer as its first operand and swap m/n.
void sgemm_rowmajor(char transa_cm, char transb_cm, std::size_t m,
                    std::size_t n, std::size_t k, const float* b_cm, int ldb_cm,
                    const float* a_cm, int lda_cm, Matrix& out) {
  out.resize(m, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    out.zero();
    return;
  }
  const int mi = static_cast<int>(n), ni = static_cast<int>(m),
            ki = static_cast<int>(k), ldc = static_cast<int>(n);
  const float alpha = 1.0f, beta = 0.0f;
  sgemm_(&transa_cm, &transb_cm, &mi, &ni, &ki, &alpha, b_cm, &ldb_cm, a_cm,
         &lda_cm, &beta, out.data(), &ldc);
}

void gemm_nn_blas(const Matrix& a, const Matrix& b, Matrix& out) {
  // C^T = b^T a^T: both buffers already are the transposes when read
  // column-major, so no trans flags.
  sgemm_rowmajor('N', 'N', a.rows(), b.cols(), a.cols(), b.data(),
                 static_cast<int>(b.cols()), a.data(),
                 static_cast<int>(a.cols()), out);
}

void gemm_tn_blas(const Matrix& a, const Matrix& b, Matrix& out) {
  // out = a^T b with a (k x m): C^T = b^T a; a column-major view is a^T, so
  // request its transpose.
  sgemm_rowmajor('N', 'T', a.cols(), b.cols(), a.rows(), b.data(),
                 static_cast<int>(b.cols()), a.data(),
                 static_cast<int>(a.cols()), out);
}

void gemm_nt_blas(const Matrix& a, const Matrix& b, Matrix& out) {
  // out = a b^T with b (n x k): C^T = b a^T; b's column-major view is b^T,
  // so request its transpose to recover b.
  sgemm_rowmajor('T', 'N', a.rows(), b.rows(), a.cols(), b.data(),
                 static_cast<int>(b.cols()), a.data(),
                 static_cast<int>(a.cols()), out);
}
#endif  // PASSFLOW_HAS_BLAS

// ---------------------------------------------------------------- backend
#ifndef PASSFLOW_GEMM_DEFAULT
#define PASSFLOW_GEMM_DEFAULT 1  // kBlocked
#endif

Backend sanitize(Backend be) {
  return available(be) ? be : Backend::kBlocked;
}

Backend initial_backend() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): getenv only races with setenv;
  // nothing in the library mutates the environment, and this runs once from
  // the backend atomic's static initializer.
  if (const char* env = std::getenv("PASSFLOW_GEMM_BACKEND")) {
    const std::string name(env);
    if (name != "naive" && name != "blocked" && name != "blas") {
      std::fprintf(stderr,
                   "passflow: unknown PASSFLOW_GEMM_BACKEND '%s' "
                   "(expected naive|blocked|blas); using blocked\n",
                   env);
    }
    return sanitize(parse_backend(name));
  }
  return sanitize(static_cast<Backend>(PASSFLOW_GEMM_DEFAULT));
}

std::atomic<Backend>& backend_state() {
  static std::atomic<Backend> state{initial_backend()};
  return state;
}

}  // namespace

Backend active_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_backend(Backend be) {
  backend_state().store(sanitize(be), std::memory_order_relaxed);
}

bool available(Backend be) {
  switch (be) {
    case Backend::kNaive:
    case Backend::kBlocked:
      return true;
    case Backend::kBlas:
#ifdef PASSFLOW_HAS_BLAS
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* backend_name(Backend be) {
  switch (be) {
    case Backend::kNaive:
      return "naive";
    case Backend::kBlocked:
      return "blocked";
    case Backend::kBlas:
      return "blas";
  }
  return "unknown";
}

Backend parse_backend(const std::string& name) {
  if (name == "naive") return Backend::kNaive;
  if (name == "blas") return Backend::kBlas;
  return Backend::kBlocked;
}

const char* kernel_name() {
  switch (host_kernel()) {
    case Kernel::kAvx512:
      return "avx512";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kPortable:
      return "portable";
  }
  return "portable";
}

void gemm_nn(Backend be, const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  switch (sanitize(be)) {
    case Backend::kNaive:
      gemm_nn_naive(a, b, out);
      return;
#ifdef PASSFLOW_HAS_BLAS
    case Backend::kBlas:
      gemm_nn_blas(a, b, out);
      return;
#endif
    default:
      gemm_nn_blocked(a, b, out);
      return;
  }
}

void gemm_tn(Backend be, const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  switch (sanitize(be)) {
    case Backend::kNaive:
      gemm_tn_naive(a, b, out);
      return;
#ifdef PASSFLOW_HAS_BLAS
    case Backend::kBlas:
      gemm_tn_blas(a, b, out);
      return;
#endif
    default:
      gemm_tn_blocked(a, b, out);
      return;
  }
}

void gemm_nt(Backend be, const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  switch (sanitize(be)) {
    case Backend::kNaive:
      gemm_nt_naive(a, b, out);
      return;
#ifdef PASSFLOW_HAS_BLAS
    case Backend::kBlas:
      gemm_nt_blas(a, b, out);
      return;
#endif
    default:
      gemm_nt_blocked(a, b, out);
      return;
  }
}

}  // namespace passflow::nn::gemm
