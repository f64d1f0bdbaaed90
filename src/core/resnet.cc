#include "core/resnet.h"

#include "nn/activations.h"
#include "nn/batchnorm1d.h"

namespace camal::core {
namespace {

// One Conv-BN(-ReLU) block.
std::unique_ptr<nn::Sequential> ConvBlock(int64_t in_ch, int64_t out_ch,
                                          int64_t kernel, bool relu,
                                          Rng* rng) {
  auto seq = std::make_unique<nn::Sequential>();
  nn::Conv1dOptions opt;
  opt.in_channels = in_ch;
  opt.out_channels = out_ch;
  opt.kernel_size = kernel;
  opt.padding = opt.SamePadding();
  opt.bias = false;  // BN makes the conv bias redundant
  seq->Add(std::make_unique<nn::Conv1d>(opt, rng));
  seq->Add(std::make_unique<nn::BatchNorm1d>(out_ch));
  if (relu) seq->Add(std::make_unique<nn::ReLU>());
  return seq;
}

// One residual unit: three conv blocks with kernels {k_p, 5, 3}; the ReLU
// of the last block happens after the shortcut addition (added by caller).
std::unique_ptr<nn::Residual> ResUnit(int64_t in_ch, int64_t out_ch,
                                      int64_t kernel_p, Rng* rng) {
  auto body = std::make_unique<nn::Sequential>();
  body->Add(ConvBlock(in_ch, out_ch, kernel_p, /*relu=*/true, rng));
  body->Add(ConvBlock(out_ch, out_ch, 5, /*relu=*/true, rng));
  body->Add(ConvBlock(out_ch, out_ch, 3, /*relu=*/false, rng));
  std::unique_ptr<nn::Module> shortcut;
  if (in_ch != out_ch) {
    shortcut = ConvBlock(in_ch, out_ch, 1, /*relu=*/false, rng);
  }
  return std::make_unique<nn::Residual>(std::move(body), std::move(shortcut));
}

}  // namespace

ResNetClassifier::ResNetClassifier(const ResNetConfig& config, Rng* rng)
    : config_(config) {
  CAMAL_CHECK_GT(config.base_filters, 0);
  const int64_t f = config.base_filters;
  body_ = std::make_unique<nn::Sequential>();
  body_->Add(ResUnit(config.input_channels, f, config.kernel_size, rng));
  body_->Add(std::make_unique<nn::ReLU>());
  body_->Add(ResUnit(f, 2 * f, config.kernel_size, rng));
  body_->Add(std::make_unique<nn::ReLU>());
  body_->Add(ResUnit(2 * f, 2 * f, config.kernel_size, rng));
  body_->Add(std::make_unique<nn::ReLU>());
  gap_ = std::make_unique<nn::GlobalAvgPool1d>();
  head_seq_ = std::make_unique<nn::Sequential>();
  head_ = head_seq_->Add(std::make_unique<nn::Linear>(
      2 * f, config.num_classes, /*bias=*/true, rng));
}

nn::Tensor ResNetClassifier::Forward(const nn::Tensor& x) {
  feature_maps_ = body_->Forward(x);
  nn::Tensor pooled = gap_->Forward(feature_maps_);
  return head_seq_->Forward(pooled);
}

nn::Tensor ResNetClassifier::Infer(const nn::Tensor& x,
                                   nn::Tensor* feature_maps) const {
  *feature_maps = body_->ForwardInference(x);
  nn::Tensor pooled = gap_->ForwardInference(*feature_maps);
  return head_seq_->ForwardInference(pooled);
}

nn::Tensor ResNetClassifier::ForwardInference(const nn::Tensor& x) {
  return Infer(x, &feature_maps_);
}

nn::Tensor ResNetClassifier::Backward(const nn::Tensor& grad_output) {
  nn::Tensor g = head_seq_->Backward(grad_output);
  g = gap_->Backward(g);
  return body_->Backward(g);
}

void ResNetClassifier::CollectParameters(std::vector<nn::Parameter*>* out) {
  body_->CollectParameters(out);
  head_seq_->CollectParameters(out);
}

void ResNetClassifier::CollectBuffers(std::vector<nn::Tensor*>* out) {
  body_->CollectBuffers(out);
  head_seq_->CollectBuffers(out);
}

void ResNetClassifier::SetTraining(bool training) {
  Module::SetTraining(training);
  body_->SetTraining(training);
  head_seq_->SetTraining(training);
}

const nn::Tensor& ResNetClassifier::head_weights() const {
  return head_->weight().value;
}

}  // namespace camal::core
