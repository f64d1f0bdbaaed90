#include "core/cam.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel_for.h"

namespace camal::core {

void CamRows(const float* maps, int64_t rows, int64_t l,
             const nn::Tensor& head_weights, int64_t class_index, float* out) {
  CAMAL_CHECK_EQ(head_weights.ndim(), 2);
  CAMAL_CHECK_GE(class_index, 0);
  CAMAL_CHECK_LT(class_index, head_weights.dim(0));
  const int64_t k = head_weights.dim(1);
  const float* w = head_weights.data() + class_index * k;
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out + r * l;
    std::fill_n(dst, l, 0.0f);
    for (int64_t ki = 0; ki < k; ++ki) {
      if (w[ki] == 0.0f) continue;
      const float* row = maps + (r * k + ki) * l;
      for (int64_t t = 0; t < l; ++t) dst[t] += w[ki] * row[t];
    }
  }
}

void ComputeCamInto(const nn::Tensor& feature_maps,
                    const nn::Tensor& head_weights, int64_t class_index,
                    nn::Tensor* out) {
  CAMAL_CHECK(out != nullptr);
  CAMAL_CHECK_EQ(feature_maps.ndim(), 3);
  CAMAL_CHECK_EQ(head_weights.ndim(), 2);
  CAMAL_CHECK_EQ(feature_maps.dim(1), head_weights.dim(1));
  const int64_t n = feature_maps.dim(0), l = feature_maps.dim(2);
  const int64_t row = feature_maps.dim(1) * l;
  out->Resize({n, l});
  ParallelFor(0, n, [&](int64_t ni) {
    CamRows(feature_maps.data() + ni * row, 1, l, head_weights, class_index,
            out->data() + ni * l);
  });
}

nn::Tensor ComputeCam(const nn::Tensor& feature_maps,
                      const nn::Tensor& head_weights, int64_t class_index) {
  nn::Tensor cam;
  ComputeCamInto(feature_maps, head_weights, class_index, &cam);
  return cam;
}

nn::Tensor NormalizeCamByMax(const nn::Tensor& cam) {
  nn::Tensor out = cam;
  NormalizeCamByMaxInPlace(&out);
  return out;
}

void NormalizeCamByMaxInPlace(nn::Tensor* cam) {
  CAMAL_CHECK(cam != nullptr);
  CAMAL_CHECK_EQ(cam->ndim(), 2);
  const int64_t n = cam->dim(0), l = cam->dim(1);
  for (int64_t ni = 0; ni < n; ++ni) {
    float* row = cam->data() + ni * l;
    float max_v = row[0];
    for (int64_t t = 1; t < l; ++t) max_v = std::max(max_v, row[t]);
    if (max_v > 0.0f) {
      const float inv = 1.0f / max_v;
      for (int64_t t = 0; t < l; ++t) row[t] *= inv;
    } else {
      // No positive evidence anywhere in the window.
      for (int64_t t = 0; t < l; ++t) row[t] = 0.0f;
    }
  }
}

nn::Tensor AverageCams(const std::vector<nn::Tensor>& cams) {
  CAMAL_CHECK(!cams.empty());
  nn::Tensor out = cams[0];
  for (size_t i = 1; i < cams.size(); ++i) {
    CAMAL_CHECK(cams[i].SameShape(out));
    out.AddInPlace(cams[i]);
  }
  out.ScaleInPlace(1.0f / static_cast<float>(cams.size()));
  return out;
}

}  // namespace camal::core
