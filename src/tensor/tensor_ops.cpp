#include "tensor/tensor_ops.hpp"

#include "obs/profile.hpp"
#include <algorithm>
#include <cmath>

#include "util/thread_pool.hpp"

namespace ddnn::ops {

namespace {

/// Elementwise ops only fan out to the pool above this element count; the
/// per-element work is tiny, so small tensors stay on the calling thread.
constexpr std::int64_t kElementwiseGrain = 1 << 15;

/// Row grain for GEMM-shaped kernels: target at least ~64k multiply-adds
/// per chunk so chunk dispatch never dominates.
std::int64_t row_grain(std::int64_t work_per_row) {
  return std::max<std::int64_t>(1, (1 << 16) / std::max<std::int64_t>(
                                                  1, work_per_row));
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  DDNN_CHECK(a.shape() == b.shape(), op << ": shape mismatch "
                                        << a.shape().to_string() << " vs "
                                        << b.shape().to_string());
}

template <typename F>
Tensor map2(const Tensor& a, const Tensor& b, const char* op, F f) {
  check_same_shape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(0, a.numel(), kElementwiseGrain,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
               });
  return out;
}

template <typename F>
Tensor map1(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  parallel_for(0, a.numel(), kElementwiseGrain,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
               });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return map2(a, b, "add", [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return map2(a, b, "sub", [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return map2(a, b, "mul", [](float x, float y) { return x * y; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return map2(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return map1(a, [s](float x) { return x + s; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return map1(a, [s](float x) { return x * s; });
}

Tensor neg(const Tensor& a) {
  return map1(a, [](float x) { return -x; });
}

Tensor exp(const Tensor& a) {
  return map1(a, [](float x) { return std::exp(x); });
}

Tensor log(const Tensor& a) {
  return map1(a, [](float x) { return std::log(x); });
}

Tensor sqrt(const Tensor& a) {
  return map1(a, [](float x) { return std::sqrt(x); });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  return map1(a, [lo, hi](float x) { return std::min(hi, std::max(lo, x)); });
}

Tensor sign(const Tensor& a) {
  return map1(a, [](float x) { return x < 0.0f ? -1.0f : 1.0f; });
}

void axpy_into(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy_into");
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  DDNN_PROF_SCOPE("matmul");
  DDNN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul needs 2-D operands");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  DDNN_CHECK(b.dim(0) == k, "matmul: inner dims " << k << " vs " << b.dim(0));
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Row-blocked: each chunk owns a contiguous block of output rows, so
  // writes are disjoint and per-element accumulation order is unchanged.
  parallel_for(0, m, row_grain(k * n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        const float* brow = pb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  DDNN_PROF_SCOPE("matmul_tn");
  DDNN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_tn needs 2-D operands");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  DDNN_CHECK(b.dim(0) == k, "matmul_tn: inner dims " << k << " vs " << b.dim(0));
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // Chunks own output-row blocks; the kk loop stays outermost within each
  // block so every c[i][j] accumulates in the same order as the serial
  // kernel (kk ascending) regardless of thread count.
  parallel_for(0, m, row_grain(k * n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* arow = pa + kk * m;
      const float* brow = pb + kk * n;
      for (std::int64_t i = i0; i < i1; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = pc + i * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(0), b.dim(0)});
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& c) {
  DDNN_PROF_SCOPE("matmul_nt");
  DDNN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_nt needs 2-D operands");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  DDNN_CHECK(b.dim(1) == k, "matmul_nt: inner dims " << k << " vs " << b.dim(1));
  DDNN_CHECK(c.ndim() == 2 && c.dim(0) == m && c.dim(1) == n,
             "matmul_nt_into: bad output shape " << c.shape().to_string());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  parallel_for(0, m, row_grain(k * n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = pb + j * k;
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
    }
  });
}

Tensor transpose2d(const Tensor& a) {
  DDNN_CHECK(a.ndim() == 2, "transpose2d needs a 2-D tensor");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t(Shape{n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

float sum_all(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean_all(const Tensor& a) {
  DDNN_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum_all(a) / static_cast<float>(a.numel());
}

float max_all(const Tensor& a) {
  DDNN_CHECK(a.numel() > 0, "max of empty tensor");
  float m = a[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  DDNN_CHECK(a.ndim() == 2, "argmax_rows needs a 2-D tensor");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  DDNN_CHECK(n > 0, "argmax_rows with zero columns");
  std::vector<std::int64_t> out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      if (a.at(i, j) > a.at(i, best)) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  DDNN_CHECK(a.ndim() == 2, "softmax_rows needs a 2-D tensor");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(a.shape());
  parallel_for(0, m, row_grain(n * 8), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float mx = a.at(i, 0);
      for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, a.at(i, j));
      double denom = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        const float e = std::exp(a.at(i, j) - mx);
        out.at(i, j) = e;
        denom += e;
      }
      for (std::int64_t j = 0; j < n; ++j) {
        out.at(i, j) = static_cast<float>(out.at(i, j) / denom);
      }
    }
  });
  return out;
}

Tensor add_row_vector(const Tensor& x, const Tensor& b) {
  DDNN_CHECK(x.ndim() == 2 && b.ndim() == 1, "add_row_vector: [m,n] + [n]");
  DDNN_CHECK(x.dim(1) == b.dim(0), "add_row_vector: width mismatch");
  Tensor out(x.shape());
  const std::int64_t m = x.dim(0), n = x.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out.at(i, j) = x.at(i, j) + b[j];
  }
  return out;
}

void add_row_vector_inplace(Tensor& x, const Tensor& b) {
  DDNN_CHECK(x.ndim() == 2 && b.ndim() == 1, "add_row_vector: [m,n] + [n]");
  DDNN_CHECK(x.dim(1) == b.dim(0), "add_row_vector: width mismatch");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  float* px = x.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) px[i * n + j] += pb[j];
  }
}

Tensor sum_rows(const Tensor& x) {
  DDNN_CHECK(x.ndim() == 2, "sum_rows needs a 2-D tensor");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor out(Shape{n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out[j] += x.at(i, j);
  }
  return out;
}

void batch_norm_apply(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      const Tensor& mean, const Tensor& var, float eps,
                      Tensor& inv_std, Tensor& x_hat, Tensor& out) {
  std::int64_t batch, channels, spatial;
  if (x.ndim() == 2) {
    batch = x.dim(0);
    channels = x.dim(1);
    spatial = 1;
  } else {
    DDNN_CHECK(x.ndim() == 4, "batch_norm_apply: [N, F] or [N, C, H, W]");
    batch = x.dim(0);
    channels = x.dim(1);
    spatial = x.dim(2) * x.dim(3);
  }
  DDNN_CHECK(gamma.numel() == channels && beta.numel() == channels &&
                 mean.numel() == channels && var.numel() == channels &&
                 inv_std.numel() == channels,
             "batch_norm_apply: per-channel tensor size mismatch");
  DDNN_CHECK(x_hat.numel() == x.numel() && out.numel() == x.numel(),
             "batch_norm_apply: output size mismatch");

  for (std::int64_t c = 0; c < channels; ++c) {
    inv_std[c] = BnChannel::of(gamma[c], beta[c], mean[c], var[c], eps).inv_std;
  }
  const float* px = x.data();
  float* ph = x_hat.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const BnChannel ch{mean[c], inv_std[c], gamma[c], beta[c]};
      const std::int64_t base = (b * channels + c) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float xh = ch.normalize(px[base + s]);
        ph[base + s] = xh;
        po[base + s] = ch.affine(xh);
      }
    }
  }
}

}  // namespace ddnn::ops
