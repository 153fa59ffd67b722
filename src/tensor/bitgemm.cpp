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

/// Filters per block of xnor_conv2d: 8 disagreement counts are one 512-bit
/// vector, held in a register across all of a pixel's taps.
constexpr std::int64_t kXnorFilterBlock = 8;

/// Interior output pixels per register tile of xnor_conv2d: each weight
/// block loaded serves 6 pixels. Measured faster than 4 or 8 on the cloud
/// conv's 8-wide rows (6 interior outputs) and on 16-wide rows.
constexpr std::int64_t kXnorPixelTile = 6;

/// Sign bits of one ±1 image [C][pixels] as [pixels][cw] channel words
/// (bits past C zero). Each word plane is built in the contiguous `plane`
/// scratch first, so the channel loop vectorizes over pixels.
void pack_channel_bits(const float* img, std::int64_t c, std::int64_t pixels,
                       std::int64_t cw, std::uint64_t* dst,
                       std::uint64_t* plane) {
  for (std::int64_t t = 0; t < cw; ++t) {
    std::fill_n(plane, pixels, 0);
    for (std::int64_t ch = 64 * t; ch < std::min(c, 64 * t + 64); ++ch) {
      const float* src = img + ch * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) {
        plane[p] |= static_cast<std::uint64_t>(src[p] >= 0.0f) << (ch & 63);
      }
    }
    for (std::int64_t p = 0; p < pixels; ++p) dst[p * cw + t] = plane[p];
  }
}

/// acc[p][q] += disagreements of output pixel p of a run of P (input column
/// ix0 + p * stride for tap kx = 0) with filter q of the block at `wb`,
/// over taps [ky_lo, ky_hi) x [kx_lo, kx_hi), the same for every pixel of
/// the run (P > 1 only for pixels whose windows are horizontally in
/// bounds). `unroll 1` keeps the compiler from fully unrolling the filter
/// loop before vectorizing it, so each pixel's counts become one vector
/// register updated by one vpopcntq per input word.
template <std::int64_t P>
void add_disagreements(const std::uint64_t* img, const Conv2dGeometry& g,
                       std::int64_t cw, std::int64_t iy0, std::int64_t ix0,
                       std::int64_t ky_lo, std::int64_t ky_hi,
                       std::int64_t kx_lo, std::int64_t kx_hi,
                       const std::uint64_t* wb, std::int64_t fs,
                       std::int64_t (&acc)[P][kXnorFilterBlock]) {
  for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
    for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
      const std::uint64_t* xp = img + ((iy0 + ky) * g.in_w + ix0 + kx) * cw;
      const std::uint64_t* wp = wb + (ky * g.kernel_w + kx) * cw * fs;
      for (std::int64_t t = 0; t < cw; ++t, wp += fs) {
        for (std::int64_t p = 0; p < P; ++p) {
          const std::uint64_t xv = xp[p * g.stride * cw + t];
#pragma GCC unroll 1
          for (std::int64_t q = 0; q < kXnorFilterBlock; ++q) {
            acc[p][q] += std::popcount(xv ^ wp[q]);
          }
        }
      }
    }
  }
}

/// Stores a run of P outputs of filters [j0, j0 + nf): valid_taps * C -
/// 2 * disagree. Bits past C are zero in both packs, so they never disagree.
template <std::int64_t P>
void store_xnor_outputs(const std::int64_t (&acc)[P][kXnorFilterBlock],
                        std::int64_t valid, std::int64_t nf,
                        std::int64_t plane, float* out) {
  for (std::int64_t q = 0; q < nf; ++q) {
    for (std::int64_t p = 0; p < P; ++p) {
      out[q * plane + p] = static_cast<float>(valid - 2 * acc[p][q]);
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

PackedTaps pack_conv_taps(const PackedBits& w, std::int64_t kernel_h,
                          std::int64_t kernel_w) {
  const std::int64_t taps = kernel_h * kernel_w;
  DDNN_CHECK(taps > 0 && w.cols % taps == 0,
             "pack_conv_taps: " << w.cols << " patch bits are not a multiple of "
                                << kernel_h << "x" << kernel_w << " taps");
  PackedTaps out;
  out.filters = w.rows;
  out.channels = w.cols / taps;
  out.kernel_h = kernel_h;
  out.kernel_w = kernel_w;
  out.channel_words = (out.channels + 63) / 64;
  out.filter_stride =
      (w.rows + kXnorFilterBlock - 1) / kXnorFilterBlock * kXnorFilterBlock;
  out.bits.assign(
      static_cast<std::size_t>(taps * out.channel_words * out.filter_stride),
      0);
  for (std::int64_t f = 0; f < w.rows; ++f) {
    const std::uint64_t* row = w.row(f);
    for (std::int64_t c = 0; c < out.channels; ++c) {
      for (std::int64_t t = 0; t < taps; ++t) {
        const std::int64_t idx = c * taps + t;  // patch order (c, ky, kx)
        const std::uint64_t bit = (row[idx >> 6] >> (idx & 63)) & 1;
        out.bits[static_cast<std::size_t>(
            (t * out.channel_words + (c >> 6)) * out.filter_stride + f)] |=
            bit << (c & 63);
      }
    }
  }
  return out;
}

void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedBits& w,
                 Tensor& out) {
  xnor_conv2d(x, g, pack_conv_taps(w, g.kernel_h, g.kernel_w), out);
}

void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedTaps& w,
                 Tensor& out) {
  DDNN_PROF_SCOPE("xnor_conv2d");
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t f = w.filters, c = w.channels, cw = w.channel_words;
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "xnor_conv2d: input/geometry mismatch");
  DDNN_CHECK(c == g.in_channels && w.kernel_h == g.kernel_h &&
                 w.kernel_w == g.kernel_w,
             "xnor_conv2d: packed weight/geometry mismatch");
  DDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == f &&
                 out.dim(2) == oh && out.dim(3) == ow,
             "xnor_conv2d: bad output shape");

  // Channel bits of every input pixel, [N][H][W][cw], packed once per
  // image. Per-thread scratch, reused; bound to a local reference so the
  // chunk lambdas capture *this* thread's buffer (a lambda never captures a
  // thread_local).
  const std::int64_t in_pixels = g.in_h * g.in_w;
  static thread_local std::vector<std::uint64_t> xbits_tls;
  std::vector<std::uint64_t>& xbits = xbits_tls;
  xbits.resize(static_cast<std::size_t>(n * in_pixels * cw));
  const float* px = x.data();
  parallel_for(0, n, grain_for(c * in_pixels, n),
               [&](std::int64_t lo, std::int64_t hi) {
    static thread_local std::vector<std::uint64_t> plane;
    plane.resize(static_cast<std::size_t>(in_pixels));
    for (std::int64_t b = lo; b < hi; ++b) {
      pack_channel_bits(px + b * c * in_pixels, c, in_pixels, cw,
                        xbits.data() + b * in_pixels * cw, plane.data());
    }
  });

  // One output row per task index. Per block of filters, the row's
  // outputs whose windows lie horizontally inside the image go in tiles of
  // kXnorPixelTile, the others (the row's edges and a short tail) one by
  // one with their taps clamped; every run keeps its counts in registers
  // over its taps. Pad filters of the last block are computed, not stored.
  const std::uint64_t* wt = w.bits.data();
  const std::int64_t fs = w.filter_stride;
  float* po = out.data();
  const std::int64_t out_plane = oh * ow;
  parallel_for(0, n * oh,
               grain_for(ow * g.kernel_h * g.kernel_w * cw * fs, n * oh),
               [&](std::int64_t rlo, std::int64_t rhi) {
    for (std::int64_t r = rlo; r < rhi; ++r) {
      const std::int64_t b = r / oh, oy = r % oh;
      const std::uint64_t* img = xbits.data() + b * in_pixels * cw;
      const std::int64_t iy0 = oy * g.stride - g.pad;
      const std::int64_t ky_lo = std::max<std::int64_t>(0, -iy0);
      const std::int64_t ky_hi =
          std::max(ky_lo, std::min(g.kernel_h, g.in_h - iy0));
      const std::int64_t rows = ky_hi - ky_lo;
      for (std::int64_t j0 = 0; j0 < f; j0 += kXnorFilterBlock) {
        const std::int64_t nf = std::min(kXnorFilterBlock, f - j0);
        const std::uint64_t* wb = wt + j0;
        float* orow = po + ((b * f + j0) * oh + oy) * ow;
        for (std::int64_t ox = 0; ox < ow;) {
          const std::int64_t ix0 = ox * g.stride - g.pad;
          const std::int64_t last = ix0 + (kXnorPixelTile - 1) * g.stride;
          if (ix0 >= 0 && ox + kXnorPixelTile <= ow &&
              last + g.kernel_w <= g.in_w) {
            std::int64_t acc[kXnorPixelTile][kXnorFilterBlock] = {};
            add_disagreements(img, g, cw, iy0, ix0, ky_lo, ky_hi, 0,
                              g.kernel_w, wb, fs, acc);
            store_xnor_outputs(acc, rows * g.kernel_w * c, nf, out_plane,
                               orow + ox);
            ox += kXnorPixelTile;
            continue;
          }
          const std::int64_t kx_lo = std::max<std::int64_t>(0, -ix0);
          const std::int64_t kx_hi =
              std::max(kx_lo, std::min(g.kernel_w, g.in_w - ix0));
          std::int64_t acc[1][kXnorFilterBlock] = {};
          add_disagreements(img, g, cw, iy0, ix0, ky_lo, ky_hi, kx_lo, kx_hi,
                            wb, fs, acc);
          store_xnor_outputs(acc, rows * (kx_hi - kx_lo) * c, nf, out_plane,
                             orow + ox);
          ++ox;
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
