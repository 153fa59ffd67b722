#include "tensor/bitgemm.hpp"

#include <algorithm>
#include <bit>

#include "obs/profile.hpp"
#include "tensor/bitpack.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::bitgemm {

namespace {

/// Chunk size keeping per-task work around 64k scalar operations. Small
/// problems (under ~256k total operations) run as a single inline chunk —
/// pool dispatch costs more than it buys at batch-1 section sizes.
std::int64_t grain_for(std::int64_t work_per_index, std::int64_t total_indices) {
  const std::int64_t per = std::max<std::int64_t>(1, work_per_index);
  if (total_indices * per <= 262144) return std::max<std::int64_t>(1, total_indices);
  return std::max<std::int64_t>(1, 65536 / per);
}

/// Output columns per register tile and filters per block of sign_conv2d:
/// 4 x 32 accumulators are sixteen 8-float vectors, held in registers on a
/// 32-register AVX-512 core (measured 25 % faster there than 4 x 16 on the
/// 32-wide device images, which fill a tile exactly).
constexpr std::int64_t kTileW = 32;
constexpr std::int64_t kTileF = 4;  // the tap body names s0..s3 / acc[0..3]

/// One image of sign_conv2d. The image is first copied into `padded`
/// ([C][in_h + 2*pad][pw], zero outside the image, pw wide enough that the
/// last ox tile reads in bounds). Then every (output row, block of kTileF
/// filters, kTileW-wide ox tile) keeps its kTileF x kTileW accumulators in
/// registers across all C*KH*KW taps, in ascending patch-index order —
/// exactly ops::im2col + matmul_nt's order per output. A padded tap adds
/// 0 * (±1) as im2col's explicit zero does, and x * ±1.0f is exact, so fused
/// multiply-adds cannot change the rounding. A tail filter block repeats the
/// last filter's signs and a tail tile computes lanes past ow; neither is
/// stored. K_T > 0 bakes a K_T x K_T kernel (and stride 1) into the
/// instantiation.
template <int K_T>
void sign_conv_image(const float* img, const Conv2dGeometry& g,
                     const float* st, std::int64_t f,
                     std::vector<float>& padded, float* out) {
  const std::int64_t kh = K_T > 0 ? K_T : g.kernel_h;
  const std::int64_t kw = K_T > 0 ? K_T : g.kernel_w;
  const std::int64_t stride = K_T > 0 ? 1 : g.stride;
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ph = g.in_h + 2 * g.pad;
  const std::int64_t tiles = (ow + kTileW - 1) / kTileW;
  const std::int64_t pw =
      std::max(g.in_w + 2 * g.pad, (tiles * kTileW - 1) * stride + kw);
  padded.assign(static_cast<std::size_t>(g.in_channels * ph * pw), 0.0f);
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
      std::copy_n(img + (c * g.in_h + iy) * g.in_w, g.in_w,
                  padded.data() + (c * ph + iy + g.pad) * pw + g.pad);
    }
  }
  const float* pad_img = padded.data();

  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t j0 = 0; j0 < f; j0 += kTileF) {
      std::int64_t col[kTileF];
      for (std::int64_t q = 0; q < kTileF; ++q) {
        col[q] = std::min(j0 + q, f - 1);
      }
      for (std::int64_t ox0 = 0; ox0 < ow; ox0 += kTileW) {
        float acc[kTileF][kTileW] = {};
        const float* s = st;  // signs of tap idx at s[0, f)
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const float* row =
                pad_img + (c * ph + oy * stride + ky) * pw + ox0 * stride;
            for (std::int64_t kx = 0; kx < kw; ++kx, s += f) {
              const float s0 = s[col[0]], s1 = s[col[1]];
              const float s2 = s[col[2]], s3 = s[col[3]];
              for (std::int64_t t = 0; t < kTileW; ++t) {
                const float v = row[t * stride + kx];
                acc[0][t] += v * s0;
                acc[1][t] += v * s1;
                acc[2][t] += v * s2;
                acc[3][t] += v * s3;
              }
            }
          }
        }
        const std::int64_t nf = std::min(kTileF, f - j0);
        const std::int64_t nw = std::min(kTileW, ow - ox0);
        for (std::int64_t q = 0; q < nf; ++q) {
          std::copy_n(acc[q], nw, out + ((j0 + q) * oh + oy) * ow + ox0);
        }
      }
    }
  }
}

void pack_one_row(const float* src, std::int64_t cols, std::uint64_t* dst,
                  std::int64_t words) {
  for (std::int64_t w = 0; w < words; ++w) {
    const std::int64_t base = w * 64;
    dst[w] =
        pack_sign_word(src + base, std::min<std::int64_t>(64, cols - base));
  }
}

}  // namespace

void pack_sign_rows(const float* data, std::int64_t rows, std::int64_t cols,
                    PackedBits& out) {
  DDNN_CHECK(rows > 0 && cols > 0, "pack_sign_rows: empty matrix");
  // Dot products are reconstructed through float, exact only below 2^24.
  DDNN_CHECK(cols < (std::int64_t{1} << 24), "pack_sign_rows: row too long");
  out.rows = rows;
  out.cols = cols;
  out.words_per_row = (cols + 63) / 64;
  out.bits.assign(static_cast<std::size_t>(rows * out.words_per_row), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    pack_one_row(data + r * cols, cols, out.bits.data() + r * out.words_per_row,
                 out.words_per_row);
  }
}

PackedSigns pack_signs_matrix(const float* data, std::int64_t rows,
                              std::int64_t cols) {
  PackedSigns out;
  pack_sign_rows(data, rows, cols, out.bits);
  out.signs_t.assign(static_cast<std::size_t>(rows * cols), 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t k = 0; k < cols; ++k) {
      out.signs_t[static_cast<std::size_t>(k * rows + r)] =
          data[r * cols + k] >= 0.0f ? 1.0f : -1.0f;
    }
  }
  return out;
}

bool all_pm1(const Tensor& t) {
  const float* p = t.data();
  const std::int64_t n = t.numel();
  // Vectorized blocks, with an early exit once per block.
  for (std::int64_t i = 0; i < n; i += 256) {
    if (any_non_pm1(p + i, std::min<std::int64_t>(256, n - i))) return false;
  }
  return true;
}

void xnor_linear(const Tensor& x, const PackedBits& w, Tensor& out) {
  DDNN_PROF_SCOPE("xnor_linear");
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == w.cols,
             "xnor_linear: x shape " << x.shape().to_string() << " vs "
                                     << w.cols << " packed columns");
  DDNN_CHECK(out.ndim() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == w.rows,
             "xnor_linear: bad output shape");
  const std::int64_t m = x.dim(0), k = w.cols, wpr = w.words_per_row;

  // Per-thread packed-input scratch, reused across calls. Bound to a local
  // reference so the chunk lambdas capture *this* thread's buffer — a lambda
  // never captures a thread_local, and pool workers must not resolve it to
  // their own (empty) instance.
  static thread_local std::vector<std::uint64_t> xbits_tls;
  std::vector<std::uint64_t>& xbits = xbits_tls;
  xbits.assign(static_cast<std::size_t>(m * wpr), 0);
  const float* px = x.data();
  parallel_for(0, m, grain_for(k, m), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pack_one_row(px + i * k, k, xbits.data() + i * wpr, wpr);
    }
  });

  // Weight the chunking by word operations, not bit operations — a popcount
  // covers 64 patch positions at once.
  float* po = out.data();
  parallel_for(0, m, grain_for(w.rows * wpr * 8, m),
               [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::uint64_t* xr = xbits.data() + i * wpr;
      float* orow = po + i * w.rows;
      for (std::int64_t j = 0; j < w.rows; ++j) {
        const std::uint64_t* wr = w.row(j);
        std::int64_t disagree = 0;
        for (std::int64_t t = 0; t < wpr; ++t) {
          disagree += std::popcount(xr[t] ^ wr[t]);
        }
        // Trailing bits are zero in both packs, so they never disagree.
        orow[j] = static_cast<float>(k - 2 * disagree);
      }
    }
  });
}

void sign_linear(const Tensor& x, const PackedSigns& w, Tensor& out) {
  DDNN_PROF_SCOPE("sign_linear");
  const std::int64_t rows = w.bits.rows, k = w.bits.cols;
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == k, "sign_linear: in-feature mismatch");
  DDNN_CHECK(out.ndim() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == rows,
             "sign_linear: bad output shape");
  const std::int64_t m = x.dim(0);
  const float* px = x.data();
  const float* st = w.signs_t.data();
  float* po = out.data();
  parallel_for(0, m, grain_for(k * rows, m),
               [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(rows));
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* xrow = px + i * k;
      for (std::int64_t j = 0; j < rows; ++j) acc[static_cast<std::size_t>(j)] = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float xv = xrow[kk];
        const float* s = st + kk * rows;
        // Independent accumulator per output feature; each feature's terms
        // arrive in kk order, matching ops::matmul_nt exactly (x * ±1.0f is
        // exact, so fused multiply-adds cannot change the rounding).
        for (std::int64_t j = 0; j < rows; ++j) {
          acc[static_cast<std::size_t>(j)] += xv * s[j];
        }
      }
      float* orow = po + i * rows;
      for (std::int64_t j = 0; j < rows; ++j) orow[j] = acc[static_cast<std::size_t>(j)];
    }
  });
}

void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedBits& w,
                 Tensor& out) {
  DDNN_PROF_SCOPE("xnor_conv2d");
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size(), f = w.rows;
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "xnor_conv2d: input/geometry mismatch");
  DDNN_CHECK(w.cols == patch, "xnor_conv2d: packed weight patch mismatch");
  DDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == f &&
                 out.dim(2) == oh && out.dim(3) == ow,
             "xnor_conv2d: bad output shape");

  const std::int64_t wpr = w.words_per_row;
  const std::int64_t rows = n * oh * ow;

  // Packed im2col: per output pixel, the patch's sign bits plus a validity
  // mask (bit = 1 for in-bounds positions). The mask depends only on output
  // geometry — one row per pixel, shared across the batch. Per-thread
  // scratch, reused; bound to local references so the chunk lambdas capture
  // *this* thread's buffers (a lambda never captures a thread_local).
  static thread_local std::vector<std::uint64_t> patch_bits_tls;
  static thread_local std::vector<std::uint64_t> patch_mask_tls;
  static thread_local std::vector<std::int32_t> valid_count_tls;
  std::vector<std::uint64_t>& patch_bits = patch_bits_tls;
  std::vector<std::uint64_t>& patch_mask = patch_mask_tls;
  std::vector<std::int32_t>& valid_count = valid_count_tls;
  patch_bits.assign(static_cast<std::size_t>(rows * wpr), 0);
  patch_mask.assign(static_cast<std::size_t>(oh * ow * wpr), 0);
  valid_count.assign(static_cast<std::size_t>(oh * ow), 0);

  for (std::int64_t oy = 0; oy < oh; ++oy) {
    std::uint64_t* pm_row = patch_mask.data() + oy * ow * wpr;
    std::int64_t idx = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
        const std::int64_t iy = oy * g.stride - g.pad + ky;
        if (iy < 0 || iy >= g.in_h) {
          idx += g.kernel_w;
          continue;
        }
        for (std::int64_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
          const OutRange ox = valid_out_range(kx, g.stride, g.pad, g.in_w, ow);
          const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
          const std::int64_t word = idx >> 6;
          for (std::int64_t o = ox.lo; o < ox.hi; ++o) {
            pm_row[o * wpr + word] |= bit;
          }
        }
      }
    }
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      std::int64_t valid = 0;
      for (std::int64_t t = 0; t < wpr; ++t) {
        valid += std::popcount(pm_row[ox * wpr + t]);
      }
      valid_count[static_cast<std::size_t>(oy * ow + ox)] =
          static_cast<std::int32_t>(valid);
    }
  }

  // Narrow images (the common case here) pack each input row into one
  // bitmask first; a pixel's kernel_w-wide patch segment is then a shift of
  // that mask instead of kernel_w separate bit inserts. Bits at out-of-bounds
  // positions are arbitrary either way — the compute phase masks them out.
  const float* px = x.data();
  const bool narrow = g.in_w <= 64 && g.kernel_w <= 64 && g.pad < 64;
  static thread_local std::vector<std::uint64_t> row_bits_tls;
  std::vector<std::uint64_t>& row_bits = row_bits_tls;
  if (narrow) {
    row_bits.assign(static_cast<std::size_t>(n * g.in_channels * g.in_h), 0);
    parallel_for(0, n, grain_for(g.in_channels * g.in_h * g.in_w, n),
                 [&](std::int64_t blo, std::int64_t bhi) {
      for (std::int64_t b = blo; b < bhi; ++b) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          const float* plane =
              px + (b * g.in_channels + c) * g.in_h * g.in_w;
          for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
            row_bits[static_cast<std::size_t>((b * g.in_channels + c) *
                                                  g.in_h +
                                              iy)] =
                pack_sign_word(plane + iy * g.in_w, g.in_w);
          }
        }
      }
    });
  }

  parallel_for(0, n * oh, grain_for(ow * patch, n * oh),
               [&](std::int64_t rlo, std::int64_t rhi) {
    for (std::int64_t r = rlo; r < rhi; ++r) {
      const std::int64_t b = r / oh, oy = r % oh;
      const float* img = px + b * g.in_channels * g.in_h * g.in_w;
      std::uint64_t* pb_row = patch_bits.data() + r * ow * wpr;
      std::int64_t idx = 0;
      for (std::int64_t c = 0; c < g.in_channels; ++c) {
        const float* plane = img + c * g.in_h * g.in_w;
        for (std::int64_t ky = 0; ky < g.kernel_h; ++ky, idx += g.kernel_w) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          if (narrow) {
            const std::uint64_t rb =
                row_bits[static_cast<std::size_t>((b * g.in_channels + c) *
                                                      g.in_h +
                                                  iy)];
            const std::uint64_t kwmask =
                g.kernel_w == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << g.kernel_w) - 1;
            const std::int64_t word = idx >> 6;
            const std::int64_t off = idx & 63;
            const bool cross = off + g.kernel_w > 64;
            // Past this ox every segment bit is already shifted out (and the
            // shift amount itself would be undefined behaviour).
            const std::int64_t ox_hi =
                std::min(ow, (63 + g.pad) / g.stride + 1);
            for (std::int64_t ox = 0; ox < ox_hi; ++ox) {
              const std::int64_t start = ox * g.stride - g.pad;
              const std::uint64_t seg =
                  (start >= 0 ? rb >> start : rb << -start) & kwmask;
              pb_row[ox * wpr + word] |= seg << off;
              if (cross) pb_row[ox * wpr + word + 1] |= seg >> (64 - off);
            }
          } else {
            const float* prow = plane + iy * g.in_w;
            for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
              const std::int64_t j = idx + kx;
              const OutRange ox =
                  valid_out_range(kx, g.stride, g.pad, g.in_w, ow);
              const std::int64_t shift = kx - g.pad;
              const std::int64_t word = j >> 6;
              const std::int64_t amount = j & 63;
              for (std::int64_t o = ox.lo; o < ox.hi; ++o) {
                const std::uint64_t set = prow[o * g.stride + shift] >= 0.0f;
                pb_row[o * wpr + word] |= set << amount;
              }
            }
          }
        }
      }
    }
  });

  // Weight the chunking by word operations — a popcount covers 64 patch
  // positions at once. Feature planes are written contiguously, pixel-major.
  const std::int64_t pixels = oh * ow;
  float* po = out.data();
  parallel_for(0, n, grain_for(pixels * f * wpr * 8, n),
               [&](std::int64_t blo, std::int64_t bhi) {
    for (std::int64_t b = blo; b < bhi; ++b) {
      const std::uint64_t* pbb = patch_bits.data() + b * pixels * wpr;
      for (std::int64_t j = 0; j < f; ++j) {
        const std::uint64_t* wr = w.row(j);
        float* plane = po + (b * f + j) * pixels;
        if (wpr == 1) {
          const std::uint64_t w0 = wr[0];
          for (std::int64_t pix = 0; pix < pixels; ++pix) {
            const std::int64_t disagree =
                std::popcount((pbb[pix] ^ w0) & patch_mask[static_cast<std::size_t>(pix)]);
            plane[pix] = static_cast<float>(
                valid_count[static_cast<std::size_t>(pix)] - 2 * disagree);
          }
        } else {
          for (std::int64_t pix = 0; pix < pixels; ++pix) {
            const std::uint64_t* pb = pbb + pix * wpr;
            const std::uint64_t* pm = patch_mask.data() + pix * wpr;
            std::int64_t disagree = 0;
            for (std::int64_t t = 0; t < wpr; ++t) {
              disagree += std::popcount((pb[t] ^ wr[t]) & pm[t]);
            }
            plane[pix] = static_cast<float>(
                valid_count[static_cast<std::size_t>(pix)] - 2 * disagree);
          }
        }
      }
    }
  });
}

void sign_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedSigns& w, Tensor& out) {
  DDNN_PROF_SCOPE("sign_conv2d");
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size(), f = w.bits.rows;
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "sign_conv2d: input/geometry mismatch");
  DDNN_CHECK(w.bits.cols == patch, "sign_conv2d: packed weight patch mismatch");
  DDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == f &&
                 out.dim(2) == oh && out.dim(3) == ow,
             "sign_conv2d: bad output shape");

  const float* px = x.data();
  const float* st = w.signs_t.data();
  float* po = out.data();
  const std::int64_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_plane = f * oh * ow;
  parallel_for(0, n, grain_for(oh * ow * patch * f, n),
               [&](std::int64_t lo, std::int64_t hi) {
    // Per-thread padded-image scratch, reused across calls (each chunk runs
    // on one thread, so the reference resolves to that thread's buffer).
    static thread_local std::vector<float> padded;
    for (std::int64_t b = lo; b < hi; ++b) {
      // K_T = 3 bakes the common 3x3 stride-1 kernel into its own
      // instantiation: the ky and kx loops unroll with constant offsets.
      if (g.stride == 1 && g.kernel_h == 3 && g.kernel_w == 3) {
        sign_conv_image<3>(px + b * in_plane, g, st, f, padded,
                           po + b * out_plane);
      } else {
        sign_conv_image<0>(px + b * in_plane, g, st, f, padded,
                           po + b * out_plane);
      }
    }
  });
}

}  // namespace ddnn::bitgemm
