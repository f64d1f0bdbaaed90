#ifndef CAMAL_CORE_CAM_H_
#define CAMAL_CORE_CAM_H_

#include "nn/tensor.h"

namespace camal::core {

/// Class Activation Map (Definition II.1): for feature maps (N, K, L) and
/// head weights (num_classes, K), returns (N, L) with
///   CAM_c(n, t) = sum_k w[c, k] * f[n, k, t].
nn::Tensor ComputeCam(const nn::Tensor& feature_maps,
                      const nn::Tensor& head_weights, int64_t class_index);

/// ComputeCam into a caller-owned tensor, shaped (N, L) by Tensor::Resize,
/// so a caller that forms CAMs batch after batch reuses the same storage.
/// Each row is CamRows over that sample's maps.
void ComputeCamInto(const nn::Tensor& feature_maps,
                    const nn::Tensor& head_weights, int64_t class_index,
                    nn::Tensor* out);

/// The CAM arithmetic every CAM in the tree runs, one sample at a time:
/// rows [0, \p rows) of (rows, K, L) maps at \p maps into \p rows
/// consecutive (L) rows at \p out. Each row starts at 0 and adds
/// w[c, k] * f[k, t] for k in ascending order, skipping zero weights, so
/// a row's bits depend on its own maps only. CamBackbone::InferRows forms
/// its CAM rows here from the maps its forward just wrote.
void CamRows(const float* maps, int64_t rows, int64_t l,
             const nn::Tensor& head_weights, int64_t class_index, float* out);

/// Per-sample max normalization (step 4 of §IV-B): each row of \p cam is
/// divided by its maximum value. Negative evidence stays negative — the
/// sign carries "appliance absent here" information that the attention
/// step relies on. Rows whose maximum is not positive are zeroed.
nn::Tensor NormalizeCamByMax(const nn::Tensor& cam);

/// In-place variant of NormalizeCamByMax for reused scratch tensors.
void NormalizeCamByMaxInPlace(nn::Tensor* cam);

/// Mean of \p cams (all (N, L), same shape): the ensemble CAM of step 4.
nn::Tensor AverageCams(const std::vector<nn::Tensor>& cams);

}  // namespace camal::core

#endif  // CAMAL_CORE_CAM_H_
