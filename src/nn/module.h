#ifndef CAMAL_NN_MODULE_H_
#define CAMAL_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace camal::nn {

/// A trainable weight: value plus accumulated gradient of the training loss.
struct Parameter {
  std::string name;  ///< Dotted path, e.g. "block1.conv2.weight".
  Tensor value;      ///< Current weights.
  Tensor grad;       ///< dLoss/dValue, accumulated by Backward passes.
};

/// Base class for all neural-network layers and containers.
///
/// The substrate is layer-graph based rather than taped-autograd: each
/// Module caches whatever activations its exact gradient needs during
/// Forward, and Backward consumes the upstream gradient and returns the
/// gradient with respect to the layer input while accumulating parameter
/// gradients. The contract is:
///
///   1. Forward(x) must be called before Backward(g).
///   2. Backward(g) corresponds to the most recent Forward call.
///   3. Parameter gradients *accumulate*; call ZeroGrad() between steps.
///
/// Every layer's Backward is validated against central-difference numerical
/// gradients in tests/nn_gradcheck_test.cc.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output for input \p x, caching state for Backward.
  virtual Tensor Forward(const Tensor& x) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput for the most recent Forward call.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Inference-only forward: mathematically identical to Forward in eval
  /// mode, but free to skip the activation caching Backward needs and to
  /// use batch-oriented kernels (im2col + GEMM convolutions, fused
  /// BatchNorm affine). Calling Backward after ForwardInference is
  /// undefined. The default delegates to Forward, so layers without a
  /// dedicated fast path stay correct.
  virtual Tensor ForwardInference(const Tensor& x) { return Forward(x); }

  /// Appends pointers to this module's parameters (recursively).
  virtual void CollectParameters(std::vector<Parameter*>* out) { (void)out; }

  /// Appends pointers to this module's non-trainable state tensors that
  /// must persist with the model (BatchNorm running statistics). Buffers
  /// are saved/loaded by nn::SaveParameters/LoadParameters but never
  /// touched by optimizers.
  virtual void CollectBuffers(std::vector<Tensor*>* out) { (void)out; }

  /// Switches train/eval behaviour (BatchNorm statistics).
  virtual void SetTraining(bool training) { training_ = training; }

  /// True when in training mode (the default).
  bool training() const { return training_; }

  /// All parameters of this module (recursively).
  std::vector<Parameter*> Parameters();

  /// All persistent buffers of this module (recursively).
  std::vector<Tensor*> Buffers();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Total number of trainable scalar weights (Table II counts).
  int64_t NumParameters();

 protected:
  Module() = default;

 private:
  bool training_ = true;
};

}  // namespace camal::nn

#endif  // CAMAL_NN_MODULE_H_
