/// \file lpc.hpp
/// Linear predictive coding — the mathematics of the paper's Application
/// 1 (LPC-based acoustic data compression): per input frame, predictor
/// coefficients are derived (actor C solves the normal equations via LU
/// decomposition), the prediction error is computed over the samples
/// (actor D, the part the paper parallelizes across PEs), and the
/// quantized error is entropy-coded (actor E).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/rng.hpp"

namespace spi::dsp {

/// Biased autocorrelation r[k] = sum_n x[n] x[n-k] / N, k = 0..max_lag.
[[nodiscard]] std::vector<double> autocorrelation(std::span<const double> frame,
                                                  std::size_t max_lag);

/// Hamming window applied in place (standard LPC front end).
void hamming_window(std::span<double> frame);

/// LPC coefficients a[1..order] minimizing the forward prediction error,
/// computed by solving the Toeplitz normal equations R a = r with a
/// general LU solver (the paper's actor C performs LU decomposition).
/// Returns `order` coefficients; prediction is
///   x_hat[n] = sum_{k=1..order} a[k-1] * x[n-k].
[[nodiscard]] std::vector<double> lpc_coefficients_lu(std::span<const double> frame,
                                                      std::size_t order);

/// Same system solved by Levinson–Durbin recursion (O(order^2)); used as
/// a cross-check oracle and for the DSP microbenchmarks.
[[nodiscard]] std::vector<double> lpc_coefficients_levinson(std::span<const double> frame,
                                                            std::size_t order);

/// Prediction error e[n] = x[n] - x_hat[n] over samples
/// [begin, begin+count) of the frame (history of `order` samples before
/// `begin` must exist inside `frame` or is taken as zero). This is
/// exactly the per-PE work unit of the paper's parallelized actor D: PE i
/// computes the errors of its overlapping frame subsection.
[[nodiscard]] std::vector<double> prediction_error(std::span<const double> frame,
                                                   std::span<const double> coeffs,
                                                   std::size_t begin, std::size_t count);
/// prediction_error into `error`, whose size is the count.
void prediction_error(std::span<const double> frame, std::span<const double> coeffs,
                      std::size_t begin, std::span<double> error);

/// Reconstructs samples from the prediction error (decoder side; used by
/// round-trip tests): x[n] = e[n] + sum a[k-1] x[n-k].
[[nodiscard]] std::vector<double> lpc_reconstruct(std::span<const double> error,
                                                  std::span<const double> coeffs);

/// Synthetic speech-like test signal: a few damped harmonics with slow
/// formant drift plus AR(1)-filtered noise (short-time correlated, which
/// is all LPC needs — DESIGN.md substitution for real acoustic data).
[[nodiscard]] std::vector<double> synthetic_speech(std::size_t samples, Rng& rng);

/// Signal-to-noise ratio in dB between a reference and a reconstruction.
[[nodiscard]] double snr_db(std::span<const double> reference, std::span<const double> actual);

}  // namespace spi::dsp
