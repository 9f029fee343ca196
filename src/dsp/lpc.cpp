#include "dsp/lpc.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/linalg.hpp"

namespace spi::dsp {

std::vector<double> autocorrelation(std::span<const double> frame, std::size_t max_lag) {
  if (frame.empty()) throw std::invalid_argument("autocorrelation: empty frame");
  if (max_lag >= frame.size())
    throw std::invalid_argument("autocorrelation: lag exceeds frame length");
  std::vector<double> r(max_lag + 1, 0.0);
  const double inv_n = 1.0 / static_cast<double>(frame.size());
  for (std::size_t k = 0; k <= max_lag; ++k) {
    double acc = 0.0;
    for (std::size_t n = k; n < frame.size(); ++n) acc += frame[n] * frame[n - k];
    r[k] = acc * inv_n;
  }
  return r;
}

void hamming_window(std::span<double> frame) {
  const std::size_t n = frame.size();
  if (n < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * static_cast<double>(i) /
                                            static_cast<double>(n - 1));
    frame[i] *= w;
  }
}

std::vector<double> lpc_coefficients_lu(std::span<const double> frame, std::size_t order) {
  if (order == 0) throw std::invalid_argument("lpc_coefficients_lu: order must be >= 1");
  const std::vector<double> r = autocorrelation(frame, order);
  // Normal equations: Toeplitz system R a = r with R[i][j] = r[|i-j|],
  // right-hand side r[1..order]. A tiny diagonal load keeps silence
  // frames non-singular.
  Matrix big_r(order, order);
  for (std::size_t i = 0; i < order; ++i)
    for (std::size_t j = 0; j < order; ++j)
      big_r.at(i, j) = r[static_cast<std::size_t>(std::llabs(static_cast<long long>(i) -
                                                             static_cast<long long>(j)))];
  for (std::size_t i = 0; i < order; ++i) big_r.at(i, i) += 1e-9 * (r[0] + 1.0);
  const std::vector<double> rhs(r.begin() + 1, r.end());
  return lu_solve(std::move(big_r), rhs);
}

std::vector<double> lpc_coefficients_levinson(std::span<const double> frame, std::size_t order) {
  if (order == 0) throw std::invalid_argument("lpc_coefficients_levinson: order must be >= 1");
  std::vector<double> r = autocorrelation(frame, order);
  r[0] += 1e-9 * (r[0] + 1.0);  // same regularization as the LU path
  std::vector<double> a(order, 0.0);
  double err = r[0];
  for (std::size_t i = 0; i < order; ++i) {
    double acc = r[i + 1];
    for (std::size_t j = 0; j < i; ++j) acc -= a[j] * r[i - j];
    const double k = acc / err;
    std::vector<double> a_new(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::size_t j = 0; j < i; ++j) a_new[j] = a[j] - k * a[i - 1 - j];
    for (std::size_t j = 0; j < i; ++j) a[j] = a_new[j];
    a[i] = k;
    err *= (1.0 - k * k);
    if (err <= 0.0) err = 1e-12;  // numerically degenerate frame
  }
  return a;
}

std::vector<double> prediction_error(std::span<const double> frame,
                                     std::span<const double> coeffs, std::size_t begin,
                                     std::size_t count) {
  if (begin + count > frame.size())
    throw std::out_of_range("prediction_error: section exceeds frame");
  std::vector<double> error(count);
  prediction_error(frame, coeffs, begin, error);
  return error;
}

void prediction_error(std::span<const double> frame, std::span<const double> coeffs,
                      std::size_t begin, std::span<double> error) {
  if (begin + error.size() > frame.size())
    throw std::out_of_range("prediction_error: section exceeds frame");
  for (std::size_t n = begin; n < begin + error.size(); ++n) {
    double pred = 0.0;
    for (std::size_t k = 1; k <= coeffs.size(); ++k) {
      if (n >= k) pred += coeffs[k - 1] * frame[n - k];
    }
    error[n - begin] = frame[n] - pred;
  }
}

std::vector<double> lpc_reconstruct(std::span<const double> error,
                                    std::span<const double> coeffs) {
  std::vector<double> x(error.size(), 0.0);
  for (std::size_t n = 0; n < error.size(); ++n) {
    double pred = 0.0;
    for (std::size_t k = 1; k <= coeffs.size(); ++k) {
      if (n >= k) pred += coeffs[k - 1] * x[n - k];
    }
    x[n] = error[n] + pred;
  }
  return x;
}

std::vector<double> synthetic_speech(std::size_t samples, Rng& rng) {
  std::vector<double> x(samples, 0.0);
  // Three drifting "formants" with distinct amplitudes.
  const double base[3] = {0.031, 0.083, 0.157};   // normalized frequencies
  const double amp[3] = {0.9, 0.5, 0.25};
  double phase[3] = {rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28)};
  double drift[3] = {0.0, 0.0, 0.0};
  double ar = 0.0;  // AR(1) noise state
  for (std::size_t n = 0; n < samples; ++n) {
    double s = 0.0;
    for (int f = 0; f < 3; ++f) {
      drift[f] += rng.gaussian(0.0, 1e-5);
      phase[f] += 2.0 * std::numbers::pi * (base[f] + drift[f]);
      s += amp[f] * std::sin(phase[f]);
    }
    ar = 0.95 * ar + rng.gaussian(0.0, 0.05);
    // Slow amplitude envelope mimicking syllable energy.
    const double env =
        0.6 + 0.4 * std::sin(2.0 * std::numbers::pi * static_cast<double>(n) / 2048.0);
    x[n] = env * (s + ar);
  }
  return x;
}

double snr_db(std::span<const double> reference, std::span<const double> actual) {
  if (reference.size() != actual.size()) throw std::invalid_argument("snr_db: size mismatch");
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    signal += reference[i] * reference[i];
    const double d = reference[i] - actual[i];
    noise += d * d;
  }
  if (noise == 0.0) return 300.0;  // exact reconstruction
  return 10.0 * std::log10(signal / noise);
}

}  // namespace spi::dsp
