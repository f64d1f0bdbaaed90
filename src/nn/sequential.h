#ifndef CAMAL_NN_SEQUENTIAL_H_
#define CAMAL_NN_SEQUENTIAL_H_

#include <memory>
#include <vector>

#include "nn/module.h"

namespace camal::nn {

/// Chains modules: Forward applies them in order, Backward in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a raw observer pointer for later inspection
  /// (e.g. reading CAM weights out of a specific layer).
  template <typename M>
  M* Add(std::unique_ptr<M> module) {
    M* raw = module.get();
    layers_.push_back(std::move(module));
    return raw;
  }

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor ForwardInference(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  void CollectBuffers(std::vector<Tensor*>* out) override;
  void SetTraining(bool training) override;

  size_t size() const { return layers_.size(); }
  Module* layer(size_t i) { return layers_[i].get(); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

/// Residual wrapper: out = body(x) + shortcut(x), with an optional
/// projection shortcut when channel counts differ (the ResUnit of Fig. 4).
/// When \p shortcut is null the identity shortcut is used. It has no
/// inference kernel of its own: ResNetClassifier compiles its units into
/// fused conv steps (the shortcut add rides in the last conv's epilogue).
class Residual : public Module {
 public:
  Residual(std::unique_ptr<Module> body, std::unique_ptr<Module> shortcut);

  Tensor Forward(const Tensor& x) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  void CollectBuffers(std::vector<Tensor*>* out) override;
  void SetTraining(bool training) override;

 private:
  std::unique_ptr<Module> body_;
  std::unique_ptr<Module> shortcut_;  // nullptr => identity
};

}  // namespace camal::nn

#endif  // CAMAL_NN_SEQUENTIAL_H_
