#ifndef FORESIGHT_UTIL_FD_H_
#define FORESIGHT_UTIL_FD_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace foresight {

/// Owning wrapper for a POSIX file descriptor: closes on destruction, moves
/// transfer ownership, copying is disabled. The serve front-end's sockets,
/// epoll instances, and eventfds all live in these so no error path leaks a
/// descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Releases ownership without closing; returns the descriptor.
  int Release() { return std::exchange(fd_, -1); }

  /// Closes the descriptor (if any) and adopts `fd`.
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK on `fd` (required for every socket in an edge-triggered
/// epoll loop: a readiness event must be drained to EAGAIN).
Status SetNonBlocking(int fd);

/// Creates a nonblocking TCP listen socket bound to 127.0.0.1:`port`
/// (port 0 = kernel-assigned ephemeral port; *bound_port receives the actual
/// port either way). SO_REUSEADDR is set so restarts don't trip over
/// TIME_WAIT. Loopback-only by design: foresight_serve has no auth layer, so
/// it must not listen on external interfaces.
StatusOr<UniqueFd> CreateListenSocket(uint16_t port, int backlog,
                                      uint16_t* bound_port);

/// Reads the whole file at `path`, bytes unchanged, into a string sized from
/// the file, so the common case is one allocation and one read. Reads on to
/// EOF, so a file that grew after it was sized is still read whole. Any
/// failure to open, stat or read is an IOError.
StatusOr<std::string> ReadFileBytes(const std::string& path);

}  // namespace foresight

#endif  // FORESIGHT_UTIL_FD_H_
