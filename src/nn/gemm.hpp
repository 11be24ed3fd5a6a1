// Pluggable GEMM backend layer.
//
// Every matmul in the repo dispatches through here. Three backends:
//
//   kNaive   — the original triple loop (OpenMP over rows, k-inner saxpy).
//              Kept as the correctness reference and for odd platforms.
//   kBlocked — cache-blocked, register-tiled kernel in the GotoBLAS style:
//              B is packed into contiguous NR-wide micro-panels, A is read
//              in place through a row stride and a k stride, and a
//              register tile accumulates in registers. The tile is picked
//              once, on first use, from the CPU (kernel_name()): explicit
//              FMA intrinsics compiled under target attributes, 8 x 32 in
//              zmm on AVX-512, 4 x 16 in ymm on AVX2+FMA, a portable 4 x 16
//              loop elsewhere. No ifunc runs, so sanitizer and Debug builds
//              compute the Release bits.
//              Default backend.
//   kBlas    — vendor sgemm via find_package(BLAS); only compiled when
//              CMake found a BLAS (PASSFLOW_HAS_BLAS).
//
// The configure-time default comes from -DPASSFLOW_GEMM_BACKEND=...; the
// PASSFLOW_GEMM_BACKEND environment variable overrides it at startup and
// set_backend() overrides it at runtime (used by tests and benches).
//
// gemm_nn, gemm_tn and gemm_nt pack B on every call: training's operands
// change every step. A weight that only changes when training writes it
// is packed once instead, into a PackedB, and the gemm_nn overload on a
// PackedB reads those panels with the bits of the packing product.
//
// All entry points have beta = 0 semantics: `out` is fully overwritten and
// its storage is reused via Matrix::resize. `out` must not alias a or b.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace passflow::nn::gemm {

enum class Backend { kNaive = 0, kBlocked = 1, kBlas = 2 };

// Currently selected backend (compile default -> env override -> set_backend).
Backend active_backend();
// Runtime override; silently falls back to kBlocked if `be` is unavailable.
void set_backend(Backend be);
// True when the backend was compiled in (kBlas requires PASSFLOW_HAS_BLAS).
bool available(Backend be);
const char* backend_name(Backend be);
// Parses "naive" / "blocked" / "blas"; anything else returns kBlocked.
Backend parse_backend(const std::string& name);
// The kernel the blocked backend runs on this host: "avx512", "avx2" or
// "portable". Read-only; the FMA kernels ("avx512", "avx2") compute the
// same bits, one fused multiply-add chain per output element.
const char* kernel_name();
// Bytes written into packed B operands by this process so far: every
// per-call pack of the blocked products, and every PackedB::pack.
// Read-only; a pass that reads only PackedB operands adds nothing.
std::uint64_t packed_bytes();

// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
void gemm_nn(Backend be, const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
void gemm_tn(Backend be, const Matrix& a, const Matrix& b, Matrix& out);
// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
void gemm_nt(Backend be, const Matrix& a, const Matrix& b, Matrix& out);

// The B operand of out = a * B, copied once into the layout a backend
// reads. For the blocked backend that is what gemm_nn packs per call: the
// host tile's NR-wide panels, one region per 384-deep k block, zero-padded
// to the tile width. The naive and blas backends read a row-major copy.
class PackedB {
 public:
  PackedB() = default;
  ~PackedB();
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;

  // Packs B = [blocks[0] | blocks[1] | ...], the blocks side by side (all
  // with the same row count), for backend `be` (kBlocked when `be` is not
  // available).
  void pack(Backend be, const std::vector<const Matrix*>& blocks);

  Backend backend() const { return backend_; }
  std::size_t rows() const { return k_; }
  std::size_t cols() const { return n_; }

 private:
  friend void gemm_nn(const Matrix& a, const PackedB& b, Matrix& out);

  Backend backend_ = Backend::kBlocked;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  // kBlocked. The panels get pages of their own rather than a malloc
  // arena's: a copy is built by whichever thread first runs its product
  // and lives as long as the model, and amid a pool worker's short-lived
  // allocations it would keep that arena's pages resident after the model
  // is freed.
  float* panels_ = nullptr;
  std::size_t panel_floats_ = 0;
  Matrix row_major_;  // kNaive, kBlas
};

// out = a * B on the backend B was packed for. Each element has the bits
// gemm_nn(b.backend(), a, B, out) gives it, B being the row-major matrix
// that was packed.
void gemm_nn(const Matrix& a, const PackedB& b, Matrix& out);

}  // namespace passflow::nn::gemm
