#include "core/inception.h"

#include <algorithm>
#include <utility>

#include "nn/activations.h"

namespace camal::core {

InceptionClassifier::InceptionClassifier(const InceptionConfig& config,
                                         Rng* rng)
    : config_(config) {
  CAMAL_CHECK_GT(config.base_filters, 0);
  CAMAL_CHECK_GT(config.depth, 0);
  const int64_t f = config.base_filters;
  const int64_t out_ch = 4 * f;
  const std::vector<int64_t> kernels = {config.kernel_size,
                                        2 * config.kernel_size + 1,
                                        4 * config.kernel_size + 3};

  int64_t in_ch = config.input_channels;
  for (int64_t d = 0; d < config.depth; ++d) {
    Block block;
    int64_t branch_in = in_ch;
    if (in_ch > 1) {
      nn::Conv1dOptions bottleneck;
      bottleneck.in_channels = in_ch;
      bottleneck.out_channels = f;
      bottleneck.kernel_size = 1;
      bottleneck.bias = false;
      block.bottleneck = std::make_unique<nn::Conv1d>(bottleneck, rng);
      branch_in = f;
    }
    for (int64_t k : kernels) {
      nn::Conv1dOptions conv;
      conv.in_channels = branch_in;
      conv.out_channels = f;
      conv.kernel_size = k;
      conv.padding = conv.SamePadding();
      conv.bias = false;
      block.branches.push_back(std::make_unique<nn::Conv1d>(conv, rng));
    }
    block.pool = std::make_unique<nn::MaxPool1d>(3, 1, 1);
    nn::Conv1dOptions proj;
    proj.in_channels = in_ch;
    proj.out_channels = f;
    proj.kernel_size = 1;
    proj.bias = false;
    block.pool_proj = std::make_unique<nn::Conv1d>(proj, rng);
    block.bn = std::make_unique<nn::BatchNorm1d>(out_ch);
    block.relu = std::make_unique<nn::ReLU>();
    block.concat_channels.assign(4, f);
    blocks_.push_back(std::move(block));
    in_ch = out_ch;
  }

  // Projection residual from the network input across the whole stack.
  shortcut_ = std::make_unique<nn::Sequential>();
  nn::Conv1dOptions sc;
  sc.in_channels = config.input_channels;
  sc.out_channels = out_ch;
  sc.kernel_size = 1;
  sc.bias = false;
  shortcut_->Add(std::make_unique<nn::Conv1d>(sc, rng));
  shortcut_->Add(std::make_unique<nn::BatchNorm1d>(out_ch));
  final_relu_ = std::make_unique<nn::ReLU>();

  gap_ = std::make_unique<nn::GlobalAvgPool1d>();
  head_seq_ = std::make_unique<nn::Sequential>();
  head_ = head_seq_->Add(std::make_unique<nn::Linear>(
      out_ch, config.num_classes, /*bias=*/true, rng));
}

nn::Tensor InceptionClassifier::ForwardBlock(Block* block,
                                             const nn::Tensor& x) {
  nn::Tensor branch_in = x;
  if (block->bottleneck) {
    branch_in = block->bottleneck->Forward(x);
  }
  block->bottleneck_out = branch_in;
  std::vector<nn::Tensor> parts;
  for (auto& conv : block->branches) {
    parts.push_back(conv->Forward(branch_in));
  }
  parts.push_back(block->pool_proj->Forward(block->pool->Forward(x)));
  nn::Tensor concat = nn::ConcatChannels(parts);
  return block->relu->Forward(block->bn->Forward(concat));
}

nn::Tensor InceptionClassifier::InferBlock(const Block& block,
                                           const nn::Tensor& x) const {
  const nn::Tensor branch_in =
      block.bottleneck ? block.bottleneck->ForwardInference(x) : x;
  std::vector<nn::Tensor> parts;
  for (const auto& conv : block.branches) {
    parts.push_back(conv->ForwardInference(branch_in));
  }
  parts.push_back(
      block.pool_proj->ForwardInference(block.pool->ForwardInference(x)));
  nn::Tensor concat = nn::ConcatChannels(parts);
  return block.relu->ForwardInference(block.bn->ForwardInference(concat));
}

nn::Tensor InceptionClassifier::BackwardBlock(Block* block,
                                              const nn::Tensor& grad) {
  nn::Tensor g = block->bn->Backward(block->relu->Backward(grad));
  std::vector<nn::Tensor> grads =
      nn::SplitChannels(g, block->concat_channels);
  nn::Tensor g_branch_in;
  for (size_t b = 0; b < block->branches.size(); ++b) {
    nn::Tensor gb = block->branches[b]->Backward(grads[b]);
    if (b == 0) {
      g_branch_in = std::move(gb);
    } else {
      g_branch_in.AddInPlace(gb);
    }
  }
  nn::Tensor g_input =
      block->pool->Backward(block->pool_proj->Backward(grads.back()));
  if (block->bottleneck) {
    g_input.AddInPlace(block->bottleneck->Backward(g_branch_in));
  } else {
    g_input.AddInPlace(g_branch_in);
  }
  return g_input;
}

nn::Tensor InceptionClassifier::Forward(const nn::Tensor& x) {
  residual_input_ = x;
  nn::Tensor h = x;
  for (auto& block : blocks_) h = ForwardBlock(&block, h);
  nn::Tensor skip = shortcut_->Forward(x);
  feature_maps_ = final_relu_->Forward(nn::Add(h, skip));
  nn::Tensor pooled = gap_->Forward(feature_maps_);
  return head_seq_->Forward(pooled);
}

void InceptionClassifier::InferRows(const nn::Tensor& x, int64_t begin,
                                    int64_t end, nn::Tensor* logits,
                                    nn::Tensor* feature_maps,
                                    nn::Tensor* cam) const {
  CAMAL_CHECK_EQ(x.ndim(), 3);
  CAMAL_CHECK(0 <= begin && begin <= end && end <= x.dim(0));
  if (begin == end) return;
  // The layer-by-layer forward over a copy of the rows, whose results are
  // then copied into the caller's rows.
  const int64_t row = x.dim(1) * x.dim(2);
  nn::Tensor rows =
      nn::Tensor::Uninitialized({end - begin, x.dim(1), x.dim(2)});
  std::copy_n(x.data() + begin * row, rows.numel(), rows.data());
  nn::Tensor h = rows;
  for (const Block& block : blocks_) h = InferBlock(block, h);
  nn::Tensor skip = shortcut_->ForwardInference(rows);
  const nn::Tensor maps = final_relu_->ForwardInference(nn::Add(h, skip));
  const nn::Tensor out =
      head_seq_->ForwardInference(gap_->ForwardInference(maps));
  const auto copy_rows = [&](const nn::Tensor& from, nn::Tensor* to) {
    const int64_t size = from.numel() / from.dim(0);
    CAMAL_CHECK(to->ndim() == from.ndim() && to->dim(0) == x.dim(0) &&
                to->numel() == x.dim(0) * size);
    std::copy_n(from.data(), from.numel(), to->data() + begin * size);
  };
  copy_rows(out, logits);
  if (feature_maps != nullptr) copy_rows(maps, feature_maps);
  CamRowsInto(maps.data(), begin, end - begin, maps.dim(2), cam);
}

nn::Tensor InceptionClassifier::Backward(const nn::Tensor& grad_output) {
  nn::Tensor g = head_seq_->Backward(grad_output);
  g = gap_->Backward(g);
  g = final_relu_->Backward(g);
  nn::Tensor g_skip = shortcut_->Backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = BackwardBlock(&*it, g);
  }
  g.AddInPlace(g_skip);
  return g;
}

void InceptionClassifier::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  for (auto& block : blocks_) {
    if (block.bottleneck) block.bottleneck->CollectParameters(out);
    for (auto& conv : block.branches) conv->CollectParameters(out);
    block.pool_proj->CollectParameters(out);
    block.bn->CollectParameters(out);
  }
  shortcut_->CollectParameters(out);
  head_seq_->CollectParameters(out);
}

void InceptionClassifier::CollectBuffers(std::vector<nn::Tensor*>* out) {
  for (auto& block : blocks_) block.bn->CollectBuffers(out);
  shortcut_->CollectBuffers(out);
}

void InceptionClassifier::SetTraining(bool training) {
  Module::SetTraining(training);
  for (auto& block : blocks_) {
    if (block.bottleneck) block.bottleneck->SetTraining(training);
    for (auto& conv : block.branches) conv->SetTraining(training);
    block.pool->SetTraining(training);
    block.pool_proj->SetTraining(training);
    block.bn->SetTraining(training);
    block.relu->SetTraining(training);
  }
  shortcut_->SetTraining(training);
  final_relu_->SetTraining(training);
  gap_->SetTraining(training);
  head_seq_->SetTraining(training);
}

const nn::Tensor& InceptionClassifier::head_weights() const {
  return head_->weight().value;
}

}  // namespace camal::core
