// Thread-local scratch arena for kernel temporaries.
//
// Conv2d forward/backward and the packed GEMM need per-call float buffers
// (packed B panels, col2im columns). Allocating std::vectors for them on
// every batch item dominated small-kernel runtime; the arena instead bump-
// allocates from thread-local blocks that are reused across calls, so the
// steady-state cost of a scratch buffer is a pointer increment.
//
// Blocks are never freed or moved while a Frame is open, so every pointer
// returned inside a frame stays valid for the frame's whole lifetime (the
// arena grows by appending new blocks, not by reallocating old ones).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace safelight {

class ScratchArena {
 public:
  /// Opens a scope: everything allocated while the frame is alive is
  /// released (logically, not to the OS) when it destructs. Frames nest.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(arena), block_(arena.block_), used_(arena.used_) {}
    ~Frame() {
      arena_.block_ = block_;
      arena_.used_ = used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& arena_;
    std::size_t block_;
    std::size_t used_;
  };

  ScratchArena() = default;

  /// Uninitialized buffer of `count` floats, 64-byte aligned. Valid until
  /// the innermost enclosing Frame closes (or forever when none is open).
  float* alloc(std::size_t count);

  /// Like alloc but zero-filled.
  float* alloc_zeroed(std::size_t count);

  /// Total floats currently reserved across all blocks (test/diagnostics).
  std::size_t capacity() const;

  /// The calling thread's arena. Each pool worker gets its own, so kernels
  /// running in parallel chunks never contend for scratch space.
  static ScratchArena& local();

 private:
  struct AlignedDelete {
    void operator()(float* p) const;
  };
  struct Block {
    std::unique_ptr<float[], AlignedDelete> data;
    std::size_t size = 0;
  };

  std::vector<Block> blocks_;
  std::size_t block_ = 0;  // index of the block currently allocated from
  std::size_t used_ = 0;   // floats consumed in blocks_[block_]
};

}  // namespace safelight
