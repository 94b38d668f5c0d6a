#include "shard/shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <random>

namespace blocktri::shard {

namespace {

/// Pid + 64 random bits: two coordinators — even forked twins racing inside
/// the create-to-unlink window — never pick the same name.
std::string fresh_shm_name() {
  std::random_device rd;
  std::uint64_t salt = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  char buf[64];
  std::snprintf(buf, sizeof buf, "/bt-shard-%ld-%016llx",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(salt));
  return buf;
}

Status shm_error(const std::string& what, int err) {
  return Status(StatusCode::kIoError,
                what + ": " + std::strerror(err));
}

}  // namespace

template <class T>
SharedRegion<T>::~SharedRegion() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

template <class T>
SharedRegion<T>& SharedRegion<T>::operator=(SharedRegion&& other) noexcept {
  if (this == &other) return *this;
  if (base_ != nullptr) ::munmap(base_, bytes_);
  base_ = other.base_;
  bytes_ = other.bytes_;
  header_ = other.header_;
  x_ = other.x_;
  b_ = other.b_;
  name_ = std::move(other.name_);
  other.base_ = nullptr;
  other.bytes_ = 0;
  other.header_ = nullptr;
  other.x_ = nullptr;
  other.b_ = nullptr;
  return *this;
}

template <class T>
Status SharedRegion<T>::create(index_t n, index_t k_max, SharedRegion* out) {
  if (n < 0 || k_max < 1)
    return Status(StatusCode::kInvalidArgument,
                  "shared region needs n >= 0 and k_max >= 1");

  const std::size_t panel =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(k_max) *
      sizeof(T);
  // Header, then the x panel on a cache-line boundary, then the b panel.
  const std::size_t x_off = (sizeof(ShmHeader) + 63) & ~std::size_t(63);
  const std::size_t b_off = (x_off + panel + 63) & ~std::size_t(63);
  const std::size_t total = b_off + panel;

  std::string name = fresh_shm_name();
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return shm_error("shm_open(" + name + ")", errno);

  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    return shm_error("ftruncate(" + name + ")", err);
  }
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                      0);
  const int map_err = errno;
  // The fd and the name are both dead weight once the mapping exists: the
  // mapping itself keeps the segment alive, workers inherit it via fork,
  // and unlinking here makes a leaked name impossible under any crash.
  ::close(fd);
  ::shm_unlink(name.c_str());
  if (base == MAP_FAILED)
    return shm_error("mmap(" + name + ")", map_err);

  SharedRegion region;
  region.base_ = base;
  region.bytes_ = total;
  region.name_ = std::move(name);
  region.header_ = new (base) ShmHeader();
  region.header_->n = n;
  region.header_->k_max = k_max;
  region.x_ = reinterpret_cast<T*>(static_cast<char*>(base) + x_off);
  region.b_ = reinterpret_cast<T*>(static_cast<char*>(base) + b_off);
  *out = std::move(region);
  return Status::Ok();
}

template class SharedRegion<float>;
template class SharedRegion<double>;

}  // namespace blocktri::shard
