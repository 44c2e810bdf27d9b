#ifndef SGM_CORE_VECTOR_H_
#define SGM_CORE_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/check.h"

namespace sgm {

/// Dense d-dimensional measurement vector.
///
/// This is the fundamental data type of the geometric-monitoring library:
/// every site maintains a local measurements vector v_i(t), the coordinator
/// maintains the estimate vector e(t), and drift/deviation vectors are
/// differences of these. The type has value semantics and the
/// linear-algebra operations the protocols need (L1/L2/Linf norms,
/// axpy-style updates, dot products).
///
/// Up to kInlineDims coordinates live inside the object, so a site's vectors
/// sit next to the rest of its per-cycle state. A larger vector keeps its
/// coordinates in one heap block, which, like std::vector's, later
/// assignments reuse while they fit. `begin_` points at whichever holds the
/// coordinates, so element access never branches on where that is. A
/// moved-from vector has dimension 0.
///
/// Dimension mismatches in arithmetic are programming errors and abort via
/// SGM_CHECK (debug-friendly; the protocols never mix dimensionalities).
class Vector {
 public:
  /// Coordinates stored inside the object; every workload's vectors (3 to 8
  /// coordinates) fit.
  static constexpr std::size_t kInlineDims = 8;

  Vector() = default;

  /// Zero vector of dimension `dim`.
  explicit Vector(std::size_t dim) : Vector(dim, 0.0) {}

  /// Vector with all coordinates set to `fill`.
  Vector(std::size_t dim, double fill) {
    SetDim(dim);
    std::fill_n(begin_, dim, fill);
  }

  /// From explicit coordinates, e.g. `Vector({1.0, 2.0, 3.0})`.
  Vector(std::initializer_list<double> coords) {
    CopyFrom(coords.begin(), coords.size());
  }

  /// From an existing buffer.
  explicit Vector(const std::vector<double>& coords) {
    CopyFrom(coords.data(), coords.size());
  }

  Vector(const Vector& other) { CopyFrom(other.begin_, other.size_); }
  Vector& operator=(const Vector& other) {
    if (this != &other) CopyFrom(other.begin_, other.size_);
    return *this;
  }
  Vector(Vector&& other) noexcept { TakeFrom(&other); }
  Vector& operator=(Vector&& other) noexcept {
    if (this != &other) {
      if (begin_ != inline_) delete[] begin_;
      TakeFrom(&other);
    }
    return *this;
  }
  ~Vector() {
    if (begin_ != inline_) delete[] begin_;
  }

  std::size_t dim() const { return size_; }
  bool empty() const { return size_ == 0; }

  double operator[](std::size_t i) const {
    SGM_DCHECK(i < size_);
    return begin_[i];
  }
  double& operator[](std::size_t i) {
    SGM_DCHECK(i < size_);
    return begin_[i];
  }

  const double* data() const { return begin_; }

  /// In-place arithmetic. All binary forms SGM_CHECK equal dimensions.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double scalar);
  Vector& operator/=(double scalar);

  /// Adds `scalar * rhs` to this vector (BLAS axpy).
  Vector& Axpy(double scalar, const Vector& rhs);

  /// Euclidean (L2) norm — the `‖y‖` of the paper (Table 1).
  double Norm() const;
  /// Squared Euclidean norm, avoids the sqrt.
  double SquaredNorm() const;
  /// Sum of absolute coordinate values.
  double L1Norm() const;
  /// Maximum absolute coordinate value.
  double LInfNorm() const;
  /// Sum of coordinates (histogram mass, contingency-table total, ...).
  double Sum() const;

  double Dot(const Vector& rhs) const;

  /// Euclidean distance to `rhs`.
  double DistanceTo(const Vector& rhs) const;

  /// Sets all coordinates to zero, keeping the dimension.
  void SetZero();

  /// "[x0, x1, ...]" with limited precision, for logs and test output.
  std::string ToString() const;

  friend bool operator==(const Vector& a, const Vector& b) {
    return a.size_ == b.size_ && std::equal(a.begin_, a.begin_ + a.size_,
                                            b.begin_);
  }

 private:
  /// Gives the vector `dim` coordinates of unspecified value, in a fresh
  /// heap block only when `dim` exceeds the capacity.
  void SetDim(std::size_t dim) {
    if (dim > capacity_) {
      double* const fresh = new double[dim];
      if (begin_ != inline_) delete[] begin_;
      begin_ = fresh;
      capacity_ = dim;
    }
    size_ = dim;
  }
  /// Becomes a copy of `count` coordinates at `coords`.
  void CopyFrom(const double* coords, std::size_t count) {
    SetDim(count);
    std::copy_n(coords, count, begin_);
  }
  /// Takes `other`'s coordinates (its heap block, or a copy of its inline
  /// ones) and leaves it empty. Whatever heap block `*this` held must already
  /// be freed.
  void TakeFrom(Vector* other) {
    if (other->begin_ != other->inline_) {
      begin_ = other->begin_;
      capacity_ = other->capacity_;
    } else {
      std::copy_n(other->inline_, other->size_, inline_);
      begin_ = inline_;
      capacity_ = kInlineDims;
    }
    size_ = other->size_;
    other->begin_ = other->inline_;
    other->size_ = 0;
    other->capacity_ = kInlineDims;
  }

  double* begin_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineDims;  ///< coordinates begin_ can hold
  /// Left uninitialized, as a std::vector's spare capacity is: nothing reads
  /// past the first size_ coordinates, and zeroing it would cost every
  /// temporary and every message a 64-byte store.
  double inline_[kInlineDims];
};

/// Value-returning arithmetic helpers.
Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(Vector lhs, double scalar);
Vector operator*(double scalar, Vector rhs);
Vector operator/(Vector lhs, double scalar);

/// Arithmetic mean of `vectors`; SGM_CHECKs a non-empty, equal-dim input.
Vector Mean(const std::vector<Vector>& vectors);

/// Coordinate-wise sum of `vectors`; SGM_CHECKs a non-empty input.
Vector Sum(const std::vector<Vector>& vectors);

}  // namespace sgm

#endif  // SGM_CORE_VECTOR_H_
