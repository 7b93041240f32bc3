#include "servebench/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "servebench/common.h"

namespace servebench {

std::unique_ptr<ServerProcess> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, std::chrono::seconds timeout,
    std::string* error) {
  int out[2];
  if (pipe(out) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port");
  argv_s.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the driver, even one killed by a signal.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  std::unique_ptr<ServerProcess> p(new ServerProcess());
  p->pid_ = pid;
  p->stdout_fd_ = out[0];

  // The first stdout line is "cqac_serve listening on 127.0.0.1:PORT".
  std::string line;
  const auto deadline = Clock::now() + timeout;
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{p->stdout_fd_, POLLIN, 0};
    if (left.count() <= 0 || poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      *error = "server did not report listening in time";
      return nullptr;
    }
    char buf[256];
    ssize_t n = read(p->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "server exited before listening (see " + log_path + ")";
      return nullptr;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("cqac_serve listening on", 0) != 0 ||
      colon == std::string::npos) {
    *error = "unexpected server banner: " + line;
    return nullptr;
  }
  p->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return p;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Kill();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = -1, stime = -1;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  if (utime < 0 || stime < 0) return -1;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void ServerProcess::Reap(bool block) {
  if (pid_ <= 0) return;
  int status = 0;
  if (waitpid(pid_, &status, block ? 0 : WNOHANG) == pid_) pid_ = -1;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  Reap(true);
}

bool ServerProcess::Terminate(std::chrono::seconds grace) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + grace;
  while (Clock::now() < deadline) {
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

std::unique_ptr<Connection> Connection::Open(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return nullptr;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  bytes_sent_ += bytes.size();
  return true;
}

bool Connection::Receive(std::vector<std::string>* lines, int64_t wait_ns) {
  pollfd pfd{fd_, POLLIN, 0};
  timespec ts{static_cast<time_t>(wait_ns / 1000000000),
              static_cast<long>(wait_ns % 1000000000)};
  int ready = ppoll(&pfd, 1, wait_ns < 0 ? nullptr : &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready > 0) {
    char buf[1 << 16];
    ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    bytes_received_ += static_cast<uint64_t>(n);
    buffer_.append(buf, static_cast<size_t>(n));
  }
  size_t start = 0, nl;
  while ((nl = buffer_.find('\n', start)) != std::string::npos) {
    lines->emplace_back(buffer_, start, nl - start);
    start = nl + 1;
  }
  buffer_.erase(0, start);
  return true;
}

bool Connection::RoundTrip(const std::string& line, std::string* response,
                           std::chrono::seconds timeout) {
  if (!SendAll(line + "\n")) return false;
  std::vector<std::string> lines;
  const auto deadline = Clock::now() + timeout;
  while (lines.empty()) {
    const int64_t left =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                             Clock::now())
            .count();
    if (left <= 0 || !Receive(&lines, left)) return false;
  }
  *response = std::move(lines.front());
  return lines.size() == 1;
}

}  // namespace servebench
