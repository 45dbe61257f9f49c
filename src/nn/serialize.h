#pragma once
// Model checkpointing: saves/loads the named parameters of a Module, then
// its named buffers (BatchNorm2d's running statistics), to a simple
// self-describing binary format (magic + per-section count + per-tensor
// name/shape/data, little-endian float32). Load verifies that names and
// shapes match the module it is restoring into. Files from before buffers
// were saved carry another magic and are rejected with a message saying
// so.

#include <string>

#include "nn/module.h"

namespace apf::nn {

/// Writes every named parameter, then every named buffer, of the module.
/// Throws CheckError on I/O failure.
void save_parameters(const Module& module, const std::string& path);

/// Restores parameters and buffers saved by save_parameters. The module
/// must have the same parameter and buffer names and shapes (i.e. the same
/// architecture); anything else throws CheckError without modifying the
/// module.
void load_parameters(Module& module, const std::string& path);

}  // namespace apf::nn
