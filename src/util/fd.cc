#include "util/fd.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace foresight {

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IOError(std::string("fcntl(F_GETFL): ") +
                           std::strerror(errno));
  }
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(F_SETFL): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<UniqueFd> CreateListenSocket(uint16_t port, int backlog,
                                      uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Status::IOError(std::string("setsockopt(SO_REUSEADDR): ") +
                           std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      return Status::IOError(std::string("getsockname: ") +
                             std::strerror(errno));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  FORESIGHT_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  auto error = [&path](const char* what) {
    const int code = errno;  // Read before any allocation can change it.
    return Status::IOError(std::string(what) + " '" + path +
                           "': " + std::strerror(code));
  };
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd.valid()) return error("cannot open");
  struct stat info = {};
  if (::fstat(fd.get(), &info) != 0) return error("cannot stat");
  std::string bytes(info.st_size > 0 ? static_cast<size_t>(info.st_size) : 0,
                    '\0');
  size_t filled = 0;
  char overflow[4096];
  while (true) {
    // Fill the sized string first; once it is full, a small read probes for
    // EOF and appends whatever the file gained since fstat.
    const bool sized = filled < bytes.size();
    char* dest = sized ? bytes.data() + filled : overflow;
    const size_t room = sized ? bytes.size() - filled : sizeof(overflow);
    const ssize_t got = ::read(fd.get(), dest, room);
    if (got < 0) {
      if (errno == EINTR) continue;
      return error("error reading");
    }
    if (got == 0) break;
    if (!sized) bytes.append(overflow, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  bytes.resize(filled);
  return bytes;
}

}  // namespace foresight
