#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ipscope::io {

namespace {

std::string StageError(std::string_view stage, const std::string& path,
                       int err) {
  std::string out{stage};
  out += " failed for ";
  out += path;
  out += ": ";
  out += std::strerror(err);
  return out;
}

// Closes a descriptor on a path that already failed: the temp file is
// about to be unlinked (or the read is being reported as failed), so this
// close cannot lose committed data and its result would not change the
// error being reported.
void CloseDiscard(int fd) {
  // lint: close(the enclosing operation already failed and the temp file
  // is discarded; a close error here cannot lose committed data)
  ::close(fd);
}

// write(2) the whole span, retrying short writes and EINTR.
bool WriteAll(int fd, const char* data, std::size_t size, int* err) {
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      *err = errno;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// fsync the directory containing `path` so the rename itself is durable.
// Returns 0 or the errno of the failed stage.
int SyncParentDir(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return errno;
  if (::fsync(fd) != 0) {
    int err = errno;
    CloseDiscard(fd);
    return err;
  }
  if (::close(fd) != 0) return errno;
  return 0;
}

}  // namespace

std::string TempPathFor(const std::string& path) {
  return path + std::string(kTempSuffix);
}

std::optional<std::string> WriteFileAtomic(const std::string& path,
                                           std::string_view content,
                                           const AtomicWriteHooks* hooks) {
  auto at = [&](std::string_view stage) {
    if (hooks != nullptr && hooks->at) hooks->at(stage);
  };
  const std::string tmp = TempPathFor(path);
  auto fail = [&](std::string_view stage, int err) {
    // Best-effort cleanup: the temp is garbage once any stage failed.
    ::unlink(tmp.c_str());
    return StageError(stage, tmp, err);
  };

  at("pre-temp-write");
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return StageError("open", tmp, errno);

  int err = 0;
  std::uint64_t split = hooks != nullptr ? hooks->split_at : 0;
  if (split > 0 && split < content.size()) {
    if (!WriteAll(fd, content.data(), static_cast<std::size_t>(split),
                  &err)) {
      CloseDiscard(fd);
      return fail("write", err);
    }
    at("mid-write");
    if (!WriteAll(fd, content.data() + split,
                  content.size() - static_cast<std::size_t>(split), &err)) {
      CloseDiscard(fd);
      return fail("write", err);
    }
  } else if (!WriteAll(fd, content.data(), content.size(), &err)) {
    CloseDiscard(fd);
    return fail("write", err);
  }

  at("pre-fsync");
  if (::fsync(fd) != 0) {
    err = errno;
    CloseDiscard(fd);
    return fail("fsync", err);
  }
  // The checked close is the last chance to learn about a write-back
  // failure (ENOSPC/EIO surfacing only at close is a real failure mode).
  if (::close(fd) != 0) return fail("close", errno);

  at("pre-rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename", errno);
  }
  if (int dir_err = SyncParentDir(path); dir_err != 0) {
    // The rename already happened; the new content is visible but its
    // directory entry may not be durable. Report it — callers treat any
    // returned message as a failed write.
    return StageError("directory fsync", path, dir_err);
  }
  return std::nullopt;
}

Result<std::string, ReadFileError> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    return ReadFileError{"open", StageError("open", path, err), err};
  }
  // Read straight into a buffer sized from fstat. The spare byte lets the
  // read that sees end-of-file land inside it, so an unchanged file is
  // read with no reallocation: one copy of the content in memory. Files
  // longer than reported (procfs says 0) grow the buffer as they go.
  struct stat st {};
  std::string content(
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size) + 1
          : 1,
      '\0');
  std::size_t done = 0;
  while (true) {
    if (done == content.size()) content.resize(2 * content.size());
    ssize_t n = ::read(fd, content.data() + done, content.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      CloseDiscard(fd);
      return ReadFileError{"read", StageError("read", path, err), err};
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  content.resize(done);
  if (::close(fd) != 0) {
    const int err = errno;
    return ReadFileError{"close", StageError("close", path, err), err};
  }
  return content;
}

}  // namespace ipscope::io
