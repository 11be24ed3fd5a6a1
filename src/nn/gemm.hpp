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
// All entry points have beta = 0 semantics: `out` is fully overwritten and
// its storage is reused via Matrix::resize. `out` must not alias a or b.
#pragma once

#include <string>

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

// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
void gemm_nn(Backend be, const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
void gemm_tn(Backend be, const Matrix& a, const Matrix& b, Matrix& out);
// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
void gemm_nt(Backend be, const Matrix& a, const Matrix& b, Matrix& out);

}  // namespace passflow::nn::gemm
