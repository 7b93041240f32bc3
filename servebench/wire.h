// The loopback side of servebench: a cqac_serve child process and a
// line-oriented client connection.
#ifndef SERVEBENCH_WIRE_H_
#define SERVEBENCH_WIRE_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

/// A running cqac_serve child. The destructor SIGKILLs and reaps it if it
/// is still running, so no server outlives the driver.
class ServerProcess {
 public:
  /// Starts `binary args... --port 0` with stderr appended to `log_path`
  /// and waits (at most `timeout`) for its "listening" line. Returns null
  /// on failure, with the reason in `*error`.
  static std::unique_ptr<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, std::chrono::seconds timeout,
      std::string* error);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// The kernel's peak resident set (VmHWM) of the server, in MiB; 0 when
  /// unreadable.
  double PeakRssMb() const;

  /// User plus system CPU seconds the server has used so far, over all its
  /// threads; -1 when unreadable.
  double CpuSeconds() const;

  /// SIGKILLs the server and reaps it.
  void Kill();
  /// SIGTERMs the server (graceful drain) and reaps it, escalating to
  /// SIGKILL after `grace`. Returns true on a clean exit.
  bool Terminate(std::chrono::seconds grace);

 private:
  ServerProcess() = default;
  void Reap(bool block);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// A blocking newline-delimited client connection to 127.0.0.1.
class Connection {
 public:
  /// Connects; null on failure.
  static std::unique_ptr<Connection> Open(uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `bytes` completely. False on a broken connection.
  bool SendAll(const std::string& bytes);

  /// Moves every complete line already received into `lines` (without the
  /// newline), waiting up to `wait_ns` for at least some bytes when none are
  /// buffered. False when the peer closed or the socket failed.
  bool Receive(std::vector<std::string>* lines, int64_t wait_ns);

  /// Sends one request line and waits for its response line.
  bool RoundTrip(const std::string& line, std::string* response,
                 std::chrono::seconds timeout);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WIRE_H_
