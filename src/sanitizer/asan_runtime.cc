#include "sanitizer/asan_runtime.h"

#include "sanitizer/asan_pass.h"

namespace sulong
{

AsanRuntime::AsanRuntime(AsanOptions options) : options_(options) {}

void
AsanRuntime::onStartup(NativeMemory &mem, const Module &module,
                       const std::vector<uint64_t> &global_addrs)
{
    (void)mem;
    // Poison the inter-global redzones. The argv/envp region is NOT
    // poisoned: it was set up before the instrumented program started
    // (paper Fig. 10 — github.com/google/sanitizers issue 762).
    const auto &globals = module.globals();
    for (size_t i = 0; i < globals.size() && i < global_addrs.size(); i++) {
        uint64_t end = global_addrs[i] + globals[i]->valueType()->size();
        // Poison everything up to the next global (gap + alignment pad).
        uint64_t next = i + 1 < global_addrs.size()
            ? global_addrs[i + 1] : end + options_.redzone;
        if (next > end)
            shadow_.set(end, next - end,
                        static_cast<uint8_t>(Poison::globalRedzone));
    }
}

bool
isLibcFunction(const Function &fn)
{
    return fn.sourceFile().rfind("libc/", 0) == 0;
}

bool
AsanRuntime::checksAccessesIn(const Function &fn) const
{
    return !isLibcFunction(fn);
}

uint64_t
AsanRuntime::onMalloc(NativeMemory &mem, uint64_t size)
{
    uint64_t rz = options_.redzone;
    uint64_t total = size + 2 * rz;
    uint64_t base = mem.heapAlloc(total);
    uint64_t user = base + rz;
    shadow_.set(base, rz, static_cast<uint8_t>(Poison::heapRedzone));
    shadow_.set(user, size, static_cast<uint8_t>(Poison::ok));
    shadow_.set(user + size, total - rz - size,
                static_cast<uint8_t>(Poison::heapRedzone));
    live_[user] = LiveBlock{base, size, total};
    return user;
}

void
AsanRuntime::releaseOldest(NativeMemory &mem)
{
    if (quarantine_.empty())
        return;
    auto [user, block] = quarantine_.front();
    quarantine_.pop_front();
    shadow_.set(block.base, block.total, static_cast<uint8_t>(Poison::ok));
    mem.heapFree(block.base);
}

void
AsanRuntime::onFree(NativeMemory &mem, uint64_t addr, const SourceLoc &loc)
{
    if (addr == 0)
        return;
    auto it = live_.find(addr);
    if (it == live_.end()) {
        // Double free (still in quarantine)?
        for (const auto &[user, block] : quarantine_) {
            if (user == addr) {
                BugReport rep;
                rep.kind = ErrorKind::doubleFree;
                rep.access = AccessKind::free;
                rep.storage = StorageKind::heap;
                rep.detail = "attempting double-free on " +
                    std::to_string(addr) + " at " + loc.toString();
                throw MemoryErrorException(std::move(rep));
            }
        }
        BugReport rep;
        rep.kind = ErrorKind::invalidFree;
        rep.access = AccessKind::free;
        rep.storage = addr >= NativeLayout::stackBase
            ? StorageKind::stack
            : (addr < NativeLayout::heapBase ? StorageKind::global
                                             : StorageKind::heap);
        rep.detail = "attempting free on address which was not malloc()-ed"
            " (" + std::to_string(addr) + ") at " + loc.toString();
        throw MemoryErrorException(std::move(rep));
    }
    LiveBlock block = it->second;
    live_.erase(it);
    shadow_.set(addr, block.size, static_cast<uint8_t>(Poison::heapFreed));
    quarantine_.emplace_back(addr, block);
    while (quarantine_.size() > options_.quarantineBlocks)
        releaseOldest(mem);
}

uint64_t
AsanRuntime::onRealloc(NativeMemory &mem, uint64_t addr, uint64_t size)
{
    if (addr == 0)
        return onMalloc(mem, size);
    auto it = live_.find(addr);
    uint64_t old_size = it != live_.end() ? it->second.size : 0;
    uint64_t fresh = onMalloc(mem, size);
    uint64_t copy = std::min(old_size, size);
    if (copy > 0) {
        std::vector<uint8_t> tmp(copy);
        mem.readBytes(addr, tmp.data(), copy);
        mem.writeBytes(fresh, tmp.data(), copy);
    }
    onFree(mem, addr, SourceLoc{});
    return fresh;
}

void
AsanRuntime::onAlloca(NativeMemory &mem, uint64_t base, uint64_t var_addr,
                      uint64_t var_size, uint64_t total)
{
    (void)mem;
    shadow_.set(base, var_addr - base,
                static_cast<uint8_t>(Poison::stackRedzone));
    shadow_.set(var_addr, var_size, static_cast<uint8_t>(Poison::ok));
    shadow_.set(var_addr + var_size, base + total - var_addr - var_size,
                static_cast<uint8_t>(Poison::stackRedzone));
}

void
AsanRuntime::onFrameExit(NativeMemory &mem, uint64_t lo, uint64_t hi)
{
    (void)mem;
    shadow_.set(lo, hi - lo, static_cast<uint8_t>(Poison::ok));
}

void
AsanRuntime::report(Poison kind, uint64_t addr, unsigned size,
                    bool is_write, const SourceLoc &loc)
{
    BugReport rep;
    rep.access = is_write ? AccessKind::write : AccessKind::read;
    switch (kind) {
      case Poison::heapRedzone:
        rep.kind = ErrorKind::outOfBounds;
        rep.storage = StorageKind::heap;
        break;
      case Poison::heapFreed:
        rep.kind = ErrorKind::useAfterFree;
        rep.storage = StorageKind::heap;
        break;
      case Poison::stackRedzone:
        rep.kind = ErrorKind::outOfBounds;
        rep.storage = StorageKind::stack;
        break;
      case Poison::globalRedzone:
        rep.kind = ErrorKind::outOfBounds;
        rep.storage = StorageKind::global;
        break;
      case Poison::ok:
        rep.kind = ErrorKind::engineError;
        break;
    }
    rep.detail = std::to_string(size) + "-byte access to shadow-poisoned "
        "address " + std::to_string(addr) + " at " + loc.toString();
    throw MemoryErrorException(std::move(rep));
}

void
AsanRuntime::checkAccess(uint64_t addr, unsigned size, bool is_write,
                         const SourceLoc &loc)
{
    uint64_t bad = shadow_.firstPoisoned(addr, size);
    if (bad != UINT64_MAX) {
        report(static_cast<Poison>(shadow_.get(bad)), addr, size, is_write,
               loc);
    }
}

void
AsanRuntime::checkRange(NativeMemory &mem, uint64_t addr, uint64_t len,
                        bool is_write, const SourceLoc &loc)
{
    (void)mem;
    uint64_t bad = shadow_.firstPoisoned(addr, len);
    if (bad != UINT64_MAX) {
        report(static_cast<Poison>(shadow_.get(bad)), bad, 1, is_write,
               loc);
    }
}

void
AsanRuntime::checkString(NativeMemory &mem, uint64_t addr,
                         const SourceLoc &loc)
{
    if (addr == 0)
        return; // glibc-style "(null)" handling; not an interceptor report
    for (uint64_t i = 0; i < (1u << 20); i++) {
        uint8_t shadow = shadow_.get(addr + i);
        if (shadow != 0)
            report(static_cast<Poison>(shadow), addr + i, 1, false, loc);
        if (*mem.resolve(addr + i, 1, false) == 0)
            return;
    }
}

void
AsanRuntime::onLibcCall(NativeMemory &mem, const std::string &name,
                        const std::vector<NValue> &args,
                        const SourceLoc &loc)
{
    auto addr = [&](size_t i) { return static_cast<uint64_t>(args[i].i); };
    auto len = [&](size_t i) { return static_cast<uint64_t>(args[i].i); };

    if (name == "strlen" || name == "puts" || name == "atoi" ||
        name == "atol" || name == "atof") {
        if (args.size() >= 1)
            checkString(mem, addr(0), loc);
        return;
    }
    if (name == "strcpy") {
        if (args.size() < 2)
            return;
        checkString(mem, addr(1), loc);
        uint64_t n = mem.readCString(addr(1)).size() + 1;
        checkRange(mem, addr(0), n, true, loc);
        return;
    }
    if (name == "strcat") {
        if (args.size() < 2)
            return;
        checkString(mem, addr(0), loc);
        checkString(mem, addr(1), loc);
        uint64_t d = mem.readCString(addr(0)).size();
        uint64_t s = mem.readCString(addr(1)).size();
        checkRange(mem, addr(0) + d, s + 1, true, loc);
        return;
    }
    if (name == "strcmp") {
        if (args.size() < 2)
            return;
        checkString(mem, addr(0), loc);
        checkString(mem, addr(1), loc);
        return;
    }
    if (name == "strncpy" || name == "strncmp" || name == "strncat") {
        if (args.size() < 3)
            return;
        // Bounded variants check up to n bytes.
        checkRange(mem, addr(0), len(2), name == "strncpy", loc);
        checkRange(mem, addr(1), len(2), false, loc);
        return;
    }
    if (name == "memcpy" || name == "memmove") {
        if (args.size() < 3)
            return;
        checkRange(mem, addr(0), len(2), true, loc);
        checkRange(mem, addr(1), len(2), false, loc);
        return;
    }
    if (name == "memset") {
        if (args.size() < 3)
            return;
        checkRange(mem, addr(0), len(2), true, loc);
        return;
    }
    if (name == "memcmp") {
        if (args.size() < 3)
            return;
        checkRange(mem, addr(0), len(2), false, loc);
        checkRange(mem, addr(1), len(2), false, loc);
        return;
    }
    if (name == "strtok" && options_.interceptStrtok) {
        // Post-paper fix (rL298650): by default there is NO strtok
        // interceptor, which is exactly the Fig. 11 miss.
        if (args.size() >= 2) {
            if (addr(0) != 0)
                checkString(mem, addr(0), loc);
            checkString(mem, addr(1), loc);
        }
        return;
    }
    if (name == "printf" || name == "fprintf" || name == "sprintf" ||
        name == "snprintf") {
        // The printf interceptor validates only pointer arguments of the
        // format: %s strings are walked, but integer arguments are not
        // width- or count-checked (paper Fig. 12), and missing arguments
        // are silently skipped.
        size_t fmt_index = name == "printf" ? 0
            : (name == "snprintf" ? 2 : 1);
        if (args.size() <= fmt_index)
            return;
        checkString(mem, addr(fmt_index), loc);
        std::string fmt = mem.readCString(addr(fmt_index));
        size_t arg_index = fmt_index + 1;
        for (size_t i = 0; i + 1 < fmt.size(); i++) {
            if (fmt[i] != '%')
                continue;
            size_t j = i + 1;
            while (j < fmt.size() &&
                   (fmt[j] == '-' || fmt[j] == '+' || fmt[j] == '0' ||
                    fmt[j] == ' ' || fmt[j] == '.' ||
                    (fmt[j] >= '0' && fmt[j] <= '9') || fmt[j] == 'l' ||
                    fmt[j] == 'h' || fmt[j] == 'z')) {
                j++;
            }
            if (j >= fmt.size())
                break;
            char spec = fmt[j];
            i = j;
            if (spec == '%')
                continue;
            if (spec == 's' && arg_index < args.size())
                checkString(mem, addr(arg_index), loc);
            arg_index++;
        }
        return;
    }
}

} // namespace sulong
