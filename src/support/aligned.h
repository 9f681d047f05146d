//===- support/aligned.h - Aligned, lazily-initialized buffers -*- C++ -*-===//
///
/// \file
/// 32-byte-aligned heap buffer for DBMs. The paper's data structures
/// pre-allocate the complete DBM but initialize entries incrementally
/// on demand (Section 3); AlignedBuffer therefore never value-initializes
/// its storage.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_ALIGNED_H
#define OPTOCT_SUPPORT_ALIGNED_H

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace optoct {

/// Aligned array of trivially-copyable T. Contents are uninitialized
/// after construction and after resizeDiscard(); copy assignment keeps
/// the storage when it is large enough.
template <typename T> class AlignedBuffer {
  static constexpr std::size_t Alignment = 32; // AVX2 vector width

public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t Count) { allocate(Count); }

  AlignedBuffer(const AlignedBuffer &Other) {
    allocate(Other.Count);
    if (Count != 0)
      std::memcpy(Data, Other.Data, Count * sizeof(T));
  }

  AlignedBuffer(AlignedBuffer &&Other) noexcept
      : Data(std::exchange(Other.Data, nullptr)),
        Count(std::exchange(Other.Count, 0)),
        Capacity(std::exchange(Other.Capacity, 0)) {}

  /// A buffer assigned operands of varying sizes (the lattice operators'
  /// closed-operand scratch) allocates only when it grows.
  AlignedBuffer &operator=(const AlignedBuffer &Other) {
    if (this == &Other)
      return *this;
    if (Other.Count > Capacity) {
      deallocate();
      allocate(Other.Count);
    }
    Count = Other.Count;
    if (Count != 0)
      std::memcpy(Data, Other.Data, Count * sizeof(T));
    return *this;
  }

  AlignedBuffer &operator=(AlignedBuffer &&Other) noexcept {
    if (this == &Other)
      return *this;
    deallocate();
    Data = std::exchange(Other.Data, nullptr);
    Count = std::exchange(Other.Count, 0);
    Capacity = std::exchange(Other.Capacity, 0);
    return *this;
  }

  ~AlignedBuffer() { deallocate(); }

  /// Re-allocates to hold \p NewCount elements; contents are discarded
  /// and left uninitialized.
  void resizeDiscard(std::size_t NewCount) {
    if (NewCount == Count)
      return;
    deallocate();
    allocate(NewCount);
  }

  T *data() { return Data; }
  const T *data() const { return Data; }
  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  T &operator[](std::size_t I) {
    assert(I < Count && "AlignedBuffer index out of range");
    return Data[I];
  }
  const T &operator[](std::size_t I) const {
    assert(I < Count && "AlignedBuffer index out of range");
    return Data[I];
  }

  void fill(const T &Value) {
    for (std::size_t I = 0; I != Count; ++I)
      Data[I] = Value;
  }

private:
  void allocate(std::size_t NewCount) {
    Count = Capacity = NewCount;
    if (Count == 0) {
      Data = nullptr;
      return;
    }
    // Round the byte size up to a multiple of the alignment as required
    // by std::aligned_alloc.
    std::size_t Bytes = Count * sizeof(T);
    Bytes = (Bytes + Alignment - 1) / Alignment * Alignment;
    Data = static_cast<T *>(std::aligned_alloc(Alignment, Bytes));
    if (!Data)
      throw std::bad_alloc();
  }

  void deallocate() {
    std::free(Data);
    Data = nullptr;
    Count = Capacity = 0;
  }

  T *Data = nullptr;
  std::size_t Count = 0;
  std::size_t Capacity = 0; ///< Allocated elements; Count <= Capacity.
};

} // namespace optoct

#endif // OPTOCT_SUPPORT_ALIGNED_H
