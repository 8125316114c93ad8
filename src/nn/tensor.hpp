// Dense float32 tensor with row-major contiguous storage.
//
// This is the numeric workhorse of the CNN stack: activations are [N,C,H,W]
// (or [N,F] after flatten), parameters are [outC,inC,kH,kW] / [out,in].
// The class keeps value semantics (copyable, movable) per the Core
// Guidelines; all shape errors throw std::invalid_argument.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace safelight::nn {

using Shape = std::vector<std::size_t>;

/// Returns the element count of a shape (product of dims; 1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// Renders a shape as "[2, 3, 4]" for diagnostics.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  /// Empty rank-0 tensor with a single zero element is NOT created; a
  /// default-constructed tensor has no elements and empty shape.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit contents; data.size() must equal shape_numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);

  /// 1-D tensor from an initializer list (test convenience).
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Dimension i; throws std::out_of_range for invalid i.
  std::size_t dim(std::size_t i) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  float& operator[](std::size_t flat) { return data_[flat]; }
  float operator[](std::size_t flat) const { return data_[flat]; }

  /// Multi-dimensional access (bounds-checked, rank-checked).
  float& at(std::initializer_list<std::size_t> idx);
  float at(std::initializer_list<std::size_t> idx) const;

  /// Returns a reshaped copy sharing no storage; numel must match.
  Tensor reshaped(Shape new_shape) const;

  /// In-place reshape; numel must match.
  void reshape_inplace(Shape new_shape);

  void fill(float value);

  // ---- element-wise arithmetic (shapes must match exactly) ----
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float scalar);
  Tensor& add_scaled(const Tensor& rhs, float scale);  // this += scale * rhs

  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, float scalar) { return lhs *= scalar; }

  // ---- reductions ----
  float sum() const;
  float min() const;
  float max() const;
  float abs_max() const;
  /// Sum of squared elements (used by the L2 regularization term).
  double sum_squares() const;

  /// True when every element is finite (no NaN/Inf).
  bool all_finite() const;

 private:
  void check_same_shape(const Tensor& rhs, const char* op) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Max absolute element-wise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace safelight::nn
