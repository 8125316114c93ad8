// Binary model (de)serialization with integrity checking.
//
// Format (little-endian):
//   magic "SLW1" | u32 tensor_count |
//   per tensor: u32 name_len, name bytes, u8 kind, u32 rank, u64 dims...,
//               f32 data... |
//   u64 FNV-1a checksum over everything before it.
// load_model verifies magic, checksum, tensor count and every shape before
// overwriting any destination tensor, so a corrupt file never leaves the
// model half-loaded.
#pragma once

#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace safelight::nn {

/// Saves all parameters and state tensors of `model` to `path`, staged
/// through `path + ".tmp"` and committed with an atomic rename — a crash at
/// any byte boundary leaves either the previous file or the complete new
/// one, never a torn mix (fault-point instrumented, see common/fault.hpp).
/// Throws std::runtime_error on I/O failure.
void save_model(Sequential& model, const std::string& path);

/// Restores parameters and state tensors saved by save_model. The model must
/// have the identical architecture. Throws std::runtime_error on I/O errors,
/// checksum mismatch, or shape mismatch.
void load_model(Sequential& model, const std::string& path);

/// True when `path` exists and carries a parseable, checksum-valid file that
/// structurally matches `model`.
bool model_file_matches(Sequential& model, const std::string& path);

/// load_model for a cache: parses and validates `path` once and, when it
/// matches, loads it and returns true. A missing, corrupt or mismatched
/// file returns false and leaves `model` untouched.
bool try_load_model(Sequential& model, const std::string& path);

/// In-memory snapshot of parameters + state tensors (attack experiments
/// restore the clean model between scenarios instead of cloning it).
std::vector<Tensor> snapshot_state(Sequential& model);

/// Restores a snapshot taken from the same architecture; throws
/// std::invalid_argument on count/shape mismatch.
void restore_state(Sequential& model, const std::vector<Tensor>& snapshot);

}  // namespace safelight::nn
