#include "src/runtime/memory_manager.h"

#include "src/common/check.h"

namespace orion {
namespace runtime {

MemoryManager::MemoryManager(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

bool MemoryManager::Allocate(std::size_t bytes, std::uint64_t client) {
  if (bytes > available()) {
    return false;
  }
  client_bytes_[client] += bytes;
  used_ += bytes;
  return true;
}

std::size_t MemoryManager::ReleaseClient(std::uint64_t client) {
  const auto it = client_bytes_.find(client);
  if (it == client_bytes_.end()) {
    return 0;
  }
  const std::size_t released = it->second;
  client_bytes_.erase(it);
  ORION_CHECK(used_ >= released);
  used_ -= released;
  return released;
}

}  // namespace runtime
}  // namespace orion
