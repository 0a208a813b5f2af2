// End-to-end gpdd front-end behavior that only shows up with a real process
// and real UNIX sockets (binary path injected by CMake as GPDD_PATH):
//
//  * two clients interleaving commands each receive exactly their own
//    responses — routing is by connection, not by accident of scheduling;
//  * a client that disconnects and is replaced by a new connection reusing
//    the same file descriptor number must not inherit the old connection's
//    responses (regression: responses were once routed by fd, so a VERDICT
//    for the dead client could leak into whoever got its fd next);
//  * SIGTERM drains: in-flight commands are answered, VERDICTs reach the
//    socket, the final checkpoint manifest is written and recoverable, and
//    the exit code is 0.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/frame.h"
#include "temp_path.h"

namespace gpd::service {
namespace {

// Memoized so the forked server child (whose getpid() differs) sees the
// same path the parent computed; sockets live in /tmp to stay inside the
// sockaddr_un sun_path limit.
const std::string& sockPath() {
  static const std::string path =
      "/tmp/gpd_srv_" + std::to_string(::getpid()) + ".sock";
  return path;
}
const std::string& ckptPath() {
  static const std::string path = uniqueTempPath("gpd_srv.manifest");
  return path;
}

// A gpdd child process. stdin is held open on a pipe so the server stays up
// until we SIGTERM it (EOF on stdin also triggers a drain, which these
// tests want to control explicitly).
class Server {
 public:
  void start(const std::vector<std::string>& extraArgs) {
    const std::string sock = sockPath();  // memoize pre-fork
    int fds[2] = {-1, -1};
    ASSERT_EQ(0, ::pipe(fds));
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(fds[0], 0);
      ::close(fds[0]);
      ::close(fds[1]);
      const int devnull = ::open("/dev/null", O_WRONLY);
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
      std::vector<std::string> args = {GPDD_PATH, "--socket", sock};
      for (const std::string& a : extraArgs) args.push_back(a);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(GPDD_PATH, argv.data());
      ::_exit(127);
    }
    ::close(fds[0]);
    stdinFd_ = fds[1];
  }

  void sigterm() const { ::kill(pid_, SIGTERM); }

  // Reaps the child and returns its exit code; -1 if killed by a signal.
  int wait() {
    if (stdinFd_ >= 0) ::close(stdinFd_);
    stdinFd_ = -1;
    int status = 0;
    EXPECT_EQ(pid_, ::waitpid(pid_, &status, 0));
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdinFd_ >= 0) ::close(stdinFd_);
    ::unlink(sockPath().c_str());
  }

 private:
  pid_t pid_ = -1;
  int stdinFd_ = -1;
};

// One framed UNIX-socket client.
class Client {
 public:
  // Connects, retrying until the server has bound the socket.
  void connect() {
    for (int attempt = 0; attempt < 2000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(fd_, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      const std::string path = sockPath();
      ASSERT_LT(path.size(), sizeof(addr.sun_path));
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                    path.c_str());
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      ::poll(nullptr, 0, 5);
    }
    FAIL() << "could not connect to " << sockPath();
  }

  void send(const std::string& payload) const {
    const std::string wire = encodeFrame(payload);
    ASSERT_EQ(static_cast<ssize_t>(wire.size()),
              ::write(fd_, wire.data(), wire.size()));
  }

  // Reads until `n` frames have arrived (10s cap). Appends to received.
  void expectFrames(std::size_t n) {
    while (received.size() < n) {
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, 10000);
      ASSERT_GT(rc, 0) << "timed out waiting for frame "
                       << received.size() + 1 << " of " << n;
      char buf[4096];
      const ssize_t got = ::read(fd_, buf, sizeof(buf));
      ASSERT_GT(got, 0) << "server closed the connection early";
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(got)));
      while (auto payload = decoder_.pop()) received.push_back(*payload);
    }
  }

  // Reads frames until one arrives containing `needle` (10s cap).
  void waitFor(const std::string& needle) {
    std::size_t scanned = 0;
    for (;;) {
      for (; scanned < received.size(); ++scanned) {
        if (received[scanned].find(needle) != std::string::npos) return;
      }
      expectFrames(received.size() + 1);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Reads frames until the server closes the connection.
  void drainUntilEof() {
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, 10000);
      ASSERT_GT(rc, 0) << "timed out waiting for EOF";
      char buf[4096];
      const ssize_t got = ::read(fd_, buf, sizeof(buf));
      if (got <= 0) return;
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(got)));
      while (auto payload = decoder_.pop()) received.push_back(*payload);
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  ~Client() { close(); }

  std::vector<std::string> received;

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

// Every response names the session it belongs to, so cross-talk is
// detectable: a frame for session `mine` must never land on a connection
// that only ever spoke about another session.
void expectAllMention(const Client& c, const std::string& mine) {
  for (const std::string& payload : c.received) {
    EXPECT_NE(payload.find(mine), std::string::npos)
        << "foreign response leaked onto this connection: " << payload;
  }
}

TEST(GpddServerTest, TwoInterleavedClientsGetOnlyTheirOwnResponses) {
  Server server;
  server.start({});
  Client a;
  Client b;
  a.connect();
  b.connect();

  // Interleave: both open, both notify, both query, both close. Each step
  // waits for the response so the interleaving actually reaches the engine
  // in this order rather than racing in socket buffers.
  a.send("OPEN ta sa 2");
  b.send("OPEN tb sb 2");
  a.expectFrames(1);  // OK OPEN ta sa
  b.expectFrames(1);
  for (int e = 0; e < 3; ++e) {
    a.send("EV ta sa 0 " + std::to_string(e) + " " + std::to_string(e + 1) +
           " 0");
    b.send("EV tb sb 0 " + std::to_string(e) + " " + std::to_string(e + 1) +
           " 0");
  }
  a.send("QUERY ta sa");
  b.send("QUERY tb sb");
  a.expectFrames(2);
  b.expectFrames(2);
  a.send("CLOSE ta sa");
  b.send("CLOSE tb sb");
  a.expectFrames(3);
  b.expectFrames(3);

  expectAllMention(a, " sa");
  expectAllMention(b, " sb");
  EXPECT_NE(a.received.back().find("VERDICT ta sa"), std::string::npos)
      << a.received.back();
  EXPECT_NE(b.received.back().find("VERDICT tb sb"), std::string::npos)
      << b.received.back();

  server.sigterm();
  EXPECT_EQ(0, server.wait());
}

TEST(GpddServerTest, FdReuseDoesNotAliasConnections) {
  Server server;
  server.start({});
  Client a;
  a.connect();
  a.send("OPEN ta sa 2");
  a.expectFrames(1);
  // Leave a response in flight that the server will only produce later (a
  // NACK retry would be one; QUERY is simpler) and vanish without reading.
  a.send("EV ta sa 0 0 1 0");
  a.send("QUERY ta sa");
  a.close();

  // The very next connection typically reuses a's file descriptor number.
  // Under fd-keyed routing, sa's QUERY verdict could land here.
  Client c;
  c.connect();
  c.send("OPEN tc sc 2");
  c.send("EV tc sc 0 0 1 0");
  c.send("EV tc sc 1 0 0 1");
  c.send("QUERY tc sc");
  c.expectFrames(2);
  expectAllMention(c, " sc");

  server.sigterm();
  EXPECT_EQ(0, server.wait());
}

TEST(GpddServerTest, SigtermDrainsVerdictsAndWritesRecoverableManifest) {
  const std::string ck = ckptPath();
  std::remove(ck.c_str());
  Server server;
  server.start({"--checkpoint", ck, "--checkpoint-every", "1000000"});
  Client a;
  a.connect();
  a.send("OPEN ta sa 2");
  a.send("EV ta sa 0 0 1 0");
  a.send("EV ta sa 1 0 0 1");
  a.send("END ta sa 0 1");
  a.send("END ta sa 1 1");
  a.send("CLOSE ta sa");
  a.send("OPEN ta keep 2");  // left open: must survive into the manifest
  // The OK for the trailing OPEN proves every earlier command reached the
  // engine; only then does SIGTERM race the final pump and drain ordering.
  a.waitFor("OK OPEN ta keep");
  server.sigterm();
  a.drainUntilEof();
  EXPECT_EQ(0, server.wait());

  bool sawVerdict = false;
  for (const std::string& payload : a.received) {
    if (payload.rfind("VERDICT ta sa", 0) == 0) sawVerdict = true;
  }
  EXPECT_TRUE(sawVerdict) << "CLOSE verdict lost in drain";

  // The checkpoint-every cadence (1e6 pumps) never fired during the run, so
  // the manifest on disk can only have come from the drain path. It must be
  // complete enough for a successor to boot from.
  Server successor;
  successor.start({"--recover", "--checkpoint", ck});
  Client q;
  q.connect();
  q.send("QUERY ta keep");
  q.expectFrames(1);
  EXPECT_NE(q.received[0].find("keep"), std::string::npos) << q.received[0];
  successor.sigterm();
  EXPECT_EQ(0, successor.wait());
}

}  // namespace
}  // namespace gpd::service
