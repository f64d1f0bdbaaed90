#include "core/resnet.h"

#include <algorithm>
#include <initializer_list>

#include "nn/activations.h"

namespace camal::core {
namespace {

// One Conv-BN(-ReLU) block; *conv and *bn observe its layers.
std::unique_ptr<nn::Sequential> ConvBlock(int64_t in_ch, int64_t out_ch,
                                          int64_t kernel, bool relu,
                                          Rng* rng, const nn::Conv1d** conv,
                                          const nn::BatchNorm1d** bn) {
  auto seq = std::make_unique<nn::Sequential>();
  nn::Conv1dOptions opt;
  opt.in_channels = in_ch;
  opt.out_channels = out_ch;
  opt.kernel_size = kernel;
  opt.padding = opt.SamePadding();
  opt.bias = false;  // BN makes the conv bias redundant
  *conv = seq->Add(std::make_unique<nn::Conv1d>(opt, rng));
  *bn = seq->Add(std::make_unique<nn::BatchNorm1d>(out_ch));
  if (relu) seq->Add(std::make_unique<nn::ReLU>());
  return seq;
}

// The plan needs three activation slots: a step reads at most two values
// (its input and the residual) while it writes a third.
constexpr int kArenaSlots = 3;

// The lowest slot that none of \p live holds.
int FreeSlot(std::initializer_list<int> live) {
  int slot = 0;
  while (std::find(live.begin(), live.end(), slot) != live.end()) ++slot;
  CAMAL_CHECK_LT(slot, kArenaSlots);
  return slot;
}

// The activations of the forwards one thread runs, for every ResNet it
// runs (a slot Infer maps to the caller's maps tensor stays empty here).
// Slots keep their storage from forward to forward under Tensor::Resize's
// rule: kept while a forward needs at least a quarter of it, given back
// below that, so a thread that once ran a 32-window batch does not hold
// it through 1-window forwards.
struct Arena {
  nn::Tensor slots[kArenaSlots];
  std::vector<float> scale, shift;  // the running step's BatchNorm affine
};

}  // namespace

ResNetClassifier::ResNetClassifier(const ResNetConfig& config, Rng* rng)
    : config_(config) {
  CAMAL_CHECK_GT(config.base_filters, 0);
  const int64_t f = config.base_filters;
  body_ = std::make_unique<nn::Sequential>();
  AddUnit(config.input_channels, f, rng);
  AddUnit(f, 2 * f, rng);
  AddUnit(2 * f, 2 * f, rng);
  gap_ = std::make_unique<nn::GlobalAvgPool1d>();
  head_seq_ = std::make_unique<nn::Sequential>();
  head_ = head_seq_->Add(std::make_unique<nn::Linear>(
      2 * f, config.num_classes, /*bias=*/true, rng));
}

// One residual unit: three conv blocks with kernels {k_p, 5, 3}, the last
// block's ReLU applied after the shortcut addition. Its plan runs the
// projection shortcut first, so the unit's input is dead once the first
// body conv has read it; the last body conv adds the shortcut in its
// epilogue. Each step writes the lowest slot holding nothing it or a
// later step of the unit reads, so three slots serve every unit.
void ResNetClassifier::AddUnit(int64_t in_ch, int64_t out_ch, Rng* rng) {
  const int in = plan_.empty() ? kInput : plan_.back().out;
  PlanStep a, b, c, s;
  auto body = std::make_unique<nn::Sequential>();
  body->Add(ConvBlock(in_ch, out_ch, config_.kernel_size, /*relu=*/true, rng,
                      &a.conv, &a.bn));
  body->Add(ConvBlock(out_ch, out_ch, 5, /*relu=*/true, rng, &b.conv, &b.bn));
  body->Add(ConvBlock(out_ch, out_ch, 3, /*relu=*/false, rng, &c.conv,
                      &c.bn));
  std::unique_ptr<nn::Module> shortcut;
  int skip = in;  // identity shortcut
  if (in_ch != out_ch) {
    shortcut = ConvBlock(in_ch, out_ch, 1, /*relu=*/false, rng, &s.conv,
                         &s.bn);
    s.in = in;
    s.out = FreeSlot({in});
    plan_.push_back(s);
    skip = s.out;
  }
  a.relu = b.relu = true;
  a.in = in;
  a.out = FreeSlot({in, skip});
  b.in = a.out;
  b.out = FreeSlot({skip, a.out});
  c.in = b.out;
  c.residual = skip;
  c.out = FreeSlot({skip, b.out});
  plan_.insert(plan_.end(), {a, b, c});
  body_->Add(
      std::make_unique<nn::Residual>(std::move(body), std::move(shortcut)));
  body_->Add(std::make_unique<nn::ReLU>());
}

nn::Tensor ResNetClassifier::Forward(const nn::Tensor& x) {
  feature_maps_ = body_->Forward(x);
  nn::Tensor pooled = gap_->Forward(feature_maps_);
  return head_seq_->Forward(pooled);
}

nn::Tensor ResNetClassifier::Infer(const nn::Tensor& x,
                                   nn::Tensor* feature_maps) const {
  // Eval-mode BatchNorm only: a training-mode forward would have to
  // update the running statistics, which a const forward must not.
  CAMAL_CHECK_MSG(!training(), "ResNetClassifier::Infer needs eval mode");
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK_EQ(x.dim(1), config_.input_channels);
  thread_local Arena arena;
  const int64_t n = x.dim(0);
  // The last step's slot is the caller's maps tensor when there is one:
  // the maps are that slot's last value, and its earlier values are dead
  // before the last step writes, so the arena holds one buffer less.
  const int maps_slot = plan_.back().out;
  auto slot = [&](int s) -> nn::Tensor& {
    return s == maps_slot && feature_maps != nullptr ? *feature_maps
                                                     : arena.slots[s];
  };
  auto value = [&](int s) -> const nn::Tensor& {
    return s == kInput ? x : slot(s);
  };
  for (const PlanStep& step : plan_) {
    const nn::Tensor& in = value(step.in);
    nn::Tensor& out = slot(step.out);
    out.Resize({n, step.conv->options().out_channels,
                step.conv->OutputLength(in.dim(2))});
    const float* residual = nullptr;
    if (step.residual != kNoResidual) {
      const nn::Tensor& r = value(step.residual);
      CAMAL_CHECK_MSG(r.SameShape(out),
                      "residual body/shortcut shape mismatch");
      residual = r.data();
    }
    // Per forward, not per plan: training scores its epochs through this
    // path (EvaluateClassifierLoss) while the statistics still move.
    step.bn->FusedAffine(&arena.scale, &arena.shift);
    step.conv->ForwardInferenceInto(in.data(), n, in.dim(2),
                                    arena.scale.data(), arena.shift.data(),
                                    step.relu, residual, out.data());
  }
  return head_seq_->ForwardInference(gap_->ForwardInference(slot(maps_slot)));
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
