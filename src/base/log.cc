#include "base/log.hh"

#include <cstdarg>

namespace rix
{

std::string
strfmt(const char *fmt, ...)
{
    va_list ap, again;
    va_start(ap, fmt);
    va_copy(again, ap);
    char buf[1024];
    const int n = vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::string out(buf);
    if (n >= int(sizeof(buf))) {
        // Long messages (a full lockstep report) are never truncated.
        out.resize(size_t(n));
        vsnprintf(out.data(), size_t(n) + 1, fmt, again);
    }
    va_end(again);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

} // namespace rix
