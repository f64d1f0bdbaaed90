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
// runs (a slot InferRows maps to the caller's maps rows stays empty here).
// Slots keep their storage from forward to forward under Tensor::Resize's
// rule: kept while a forward needs at least a quarter of it, given back
// below that, so a thread that once ran a 32-window batch does not hold
// it through 1-window forwards.
struct Arena {
  nn::Tensor slots[kArenaSlots];
  std::vector<float> scale, shift;  // the running step's BatchNorm affine
  std::vector<float> pooled;        // GAP rows, the head's input
};

// A plan value: InferRows' rows of (channels, length) activations at data.
struct Value {
  const float* data = nullptr;
  int64_t channels = 0, length = 0;
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

void ResNetClassifier::InferRows(const nn::Tensor& x, int64_t begin,
                                 int64_t end, nn::Tensor* logits,
                                 nn::Tensor* feature_maps) const {
  // Eval-mode BatchNorm only: a training-mode forward would have to
  // update the running statistics, which a const forward must not.
  CAMAL_CHECK_MSG(!training(), "ResNetClassifier::InferRows needs eval mode");
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK_EQ(x.dim(1), config_.input_channels);
  CAMAL_CHECK(0 <= begin && begin <= end && end <= x.dim(0));
  const int64_t n = x.dim(0), rows = end - begin;
  const int64_t classes = config_.num_classes;
  CAMAL_CHECK(logits->ndim() == 2 && logits->dim(0) == n &&
              logits->dim(1) == classes);
  CAMAL_CHECK(feature_maps == nullptr ||
              (feature_maps->ndim() == 3 && feature_maps->dim(0) == n));
  if (rows == 0) return;
  thread_local Arena arena;
  // The last step's slot is the caller's maps rows when there are maps:
  // the maps are that slot's last value, and its earlier values are dead
  // before the last step writes and no wider than the maps, so the arena
  // holds one buffer less.
  const int maps_slot = plan_.back().out;
  const int64_t maps_row =
      feature_maps != nullptr ? feature_maps->numel() / n : 0;
  Value values[kArenaSlots];
  const Value input{x.data() + begin * x.dim(1) * x.dim(2), x.dim(1), x.dim(2)};
  auto value = [&](int s) { return s == kInput ? input : values[s]; };
  for (const PlanStep& step : plan_) {
    const Value in = value(step.in);
    const int64_t channels = step.conv->options().out_channels;
    const int64_t length = step.conv->OutputLength(in.length);
    float* out;
    if (step.out == maps_slot && feature_maps != nullptr) {
      CAMAL_CHECK_LE(channels * length, maps_row);
      out = feature_maps->data() + begin * maps_row;
    } else {
      nn::Tensor& slot = arena.slots[step.out];
      slot.Resize({rows, channels, length});
      out = slot.data();
    }
    const float* residual = nullptr;
    if (step.residual != kNoResidual) {
      const Value r = value(step.residual);
      CAMAL_CHECK_MSG(r.channels == channels && r.length == length,
                      "residual body/shortcut shape mismatch");
      residual = r.data;
    }
    // Per forward, not per plan: training scores its epochs through this
    // path (EvaluateClassifierLoss) while the statistics still move.
    step.bn->FusedAffine(&arena.scale, &arena.shift);
    step.conv->ForwardInferenceInto(in.data, rows, in.length,
                                    arena.scale.data(), arena.shift.data(),
                                    step.relu, residual, out);
    values[step.out] = Value{out, channels, length};
  }
  const Value maps = values[maps_slot];
  if (feature_maps != nullptr) {
    CAMAL_CHECK_EQ(feature_maps->dim(1), maps.channels);
    CAMAL_CHECK_EQ(feature_maps->dim(2), maps.length);
  }
  // GAP, then the head straight into the logits rows.
  arena.pooled.resize(static_cast<size_t>(rows * maps.channels));
  nn::GlobalAvgPoolRows(maps.data, rows * maps.channels, maps.length,
                        arena.pooled.data());
  head_->ForwardInferenceInto(arena.pooled.data(), rows,
                              logits->data() + begin * classes);
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
