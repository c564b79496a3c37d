// raw-io fixture: a global-namespace POSIX write outside src/persist/,
// bypassing the File helpers that own partial-write retry and the
// durability ordering rules.
#include <unistd.h>

namespace net {

long send_all(int fd, const char* buf, unsigned long n) {
    return ::write(fd, buf, n);  // pqcheck-expect: raw-io
}

// Qualified member calls never match: this is not raw I/O.
struct File {
    long write(const char* buf, unsigned long n);
};

long forward(File& f, const char* buf, unsigned long n) {
    return f.write(buf, n);
}

}  // namespace net
