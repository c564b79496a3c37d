// The one place in the tree that touches raw file descriptors. Every
// other directory goes through the WAL/Persistence API; pqcheck's raw-io
// rule enforces the boundary, so all durability reasoning (what is
// fsynced when, what a crash can tear) concentrates here and in the two
// classes built on top.
#ifndef PEQUOD_PERSIST_IO_HH
#define PEQUOD_PERSIST_IO_HH

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pequod {
namespace persist {

// Failure of an operation the durability contract depends on (open,
// write, fsync, rename). Distinct from data corruption, which is a
// detected condition the recovery paths handle, not an exception — save
// a corrupt MANIFEST, which leaves nothing to fall back to.
class IoError : public std::runtime_error {
  public:
    IoError(const std::string& what, int err)
        : std::runtime_error(what + ": " + std::strerror(err)) {}
};

// RAII fd. Writes are full-buffer or IoError; short writes retry.
class File {
  public:
    File() = default;
    File(const File&) = delete;
    File& operator=(const File&) = delete;
    File(File&& other) noexcept : fd_(other.fd_) {
        other.fd_ = -1;
    }
    File& operator=(File&& other) noexcept {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
        return *this;
    }
    ~File() {
        close();
    }

    static File create(const std::string& path) {
        return File(::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644),
                    path, "create");
    }
    static File append(const std::string& path) {
        return File(::open(path.c_str(), O_CREAT | O_APPEND | O_WRONLY, 0644),
                    path, "open for append");
    }
    static File read_only(const std::string& path) {
        return File(::open(path.c_str(), O_RDONLY), path, "open");
    }
    // Opens for reading, empty File (is_open() false) when absent.
    static File read_if_exists(const std::string& path) {
        File f;
        f.fd_ = ::open(path.c_str(), O_RDONLY);
        if (f.fd_ < 0 && errno != ENOENT)
            throw IoError("open " + path, errno);
        return f;
    }

    bool is_open() const {
        return fd_ >= 0;
    }

    void write_all(const void* data, size_t n) {
        const char* p = static_cast<const char*>(data);
        while (n != 0) {
            ssize_t w = ::write(fd_, p, n);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                throw IoError("write", errno);
            }
            p += w;
            n -= static_cast<size_t>(w);
        }
    }

    // Reads up to `n` bytes at `offset`; returns bytes read (short only
    // at end of file).
    size_t pread_some(void* data, size_t n, uint64_t offset) const {
        char* p = static_cast<char*>(data);
        size_t done = 0;
        while (done != n) {
            ssize_t r = ::pread(fd_, p + done, n - done,
                                static_cast<off_t>(offset + done));
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                throw IoError("pread", errno);
            }
            if (r == 0)
                break;
            done += static_cast<size_t>(r);
        }
        return done;
    }

    uint64_t size() const {
        struct stat st;
        if (::fstat(fd_, &st) != 0)
            throw IoError("fstat", errno);
        return static_cast<uint64_t>(st.st_size);
    }

    void fsync() {
        if (::fsync(fd_) != 0)
            throw IoError("fsync", errno);
    }

    void close() {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

  private:
    File(int fd, const std::string& path, const char* op) : fd_(fd) {
        if (fd_ < 0)  // error path only: the copy prices in the throw
            // pqcheck: allow(hot-string)
            throw IoError(std::string(op) + " " + path, errno);
    }

    int fd_ = -1;
};

// Read a whole file into `out`; false when the file does not exist.
inline bool read_file(const std::string& path, std::vector<uint8_t>& out) {
    File f = File::read_if_exists(path);
    if (!f.is_open())
        return false;
    out.resize(f.size());
    size_t got = out.empty() ? 0 : f.pread_some(out.data(), out.size(), 0);
    out.resize(got);
    return true;
}

inline void make_dir(const std::string& path) {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        throw IoError("mkdir " + path, errno);
}

// fsync the directory itself, making a just-created or just-renamed
// entry durable (a file's fsync covers its bytes, not its name).
inline void sync_dir(const std::string& path) {
    File d = File::read_only(path);
    d.fsync();
}

inline void rename_file(const std::string& from, const std::string& to) {
    if (::rename(from.c_str(), to.c_str()) != 0)
        throw IoError("rename " + from + " -> " + to, errno);
}

inline void remove_file(const std::string& path) {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT)
        throw IoError("unlink " + path, errno);
}

inline bool file_exists(const std::string& path) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

}  // namespace persist
}  // namespace pequod

#endif
