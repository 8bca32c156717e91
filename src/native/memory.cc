#include "native/memory.h"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace sulong
{

void
NativeMemory::Unmap::operator()(uint8_t *stack) const
{
    munmap(stack, NativeLayout::stackSize);
}

NativeMemory::NativeMemory()
{
    void *stack = mmap(nullptr, NativeLayout::stackSize,
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    if (stack == MAP_FAILED)
        throw std::bad_alloc();
    stack_.reset(static_cast<uint8_t *>(stack));
    args_.resize(NativeLayout::argsSize);
}

uint8_t *
NativeMemory::resolve(uint64_t addr, uint64_t size, bool is_write)
{
    // Segments are page-padded like a real process, so slightly
    // out-of-bounds accesses (word-wise strlen!) hit mapped memory.
    if (addr >= NativeLayout::globalBase &&
        addr + size <= NativeLayout::globalBase + globals_.size()) {
        return globals_.data() + (addr - NativeLayout::globalBase);
    }
    if (addr >= NativeLayout::heapBase &&
        addr + size <= NativeLayout::heapBase + heap_.size()) {
        return heap_.data() + (addr - NativeLayout::heapBase);
    }
    if (addr >= NativeLayout::stackBase && addr + size <= NativeLayout::stackTop)
        return stack_.get() + (addr - NativeLayout::stackBase);
    if (addr >= NativeLayout::argsBase &&
        addr + size <= NativeLayout::argsBase + NativeLayout::argsSize) {
        return args_.data() + (addr - NativeLayout::argsBase);
    }
    throw NativeTrap(addr, is_write);
}

uint64_t
NativeMemory::readInt(uint64_t addr, unsigned size)
{
    uint64_t out = 0;
    std::memcpy(&out, resolve(addr, size, false), size);
    return out;
}

void
NativeMemory::writeInt(uint64_t addr, unsigned size, uint64_t value)
{
    std::memcpy(resolve(addr, size, true), &value, size);
}

void
NativeMemory::readBytes(uint64_t addr, void *out, uint64_t len)
{
    if (len == 0)
        return;
    std::memcpy(out, resolve(addr, len, false), len);
}

void
NativeMemory::writeBytes(uint64_t addr, const void *data, uint64_t len)
{
    if (len == 0)
        return;
    std::memcpy(resolve(addr, len, true), data, len);
}

std::string
NativeMemory::readCString(uint64_t addr, uint64_t max_len)
{
    std::string out;
    for (uint64_t i = 0; i < max_len; i++) {
        uint8_t c = *resolve(addr + i, 1, false);
        if (c == 0)
            break;
        out.push_back(static_cast<char>(c));
    }
    return out;
}

uint64_t
NativeMemory::heapAlloc(uint64_t size)
{
    if (size == 0)
        size = 1;
    uint64_t aligned = (size + 15) / 16 * 16;
    // Metered on the aligned block size (what the host actually maps),
    // before the heap grows, so allocation bombs terminate with
    // TerminationKind::heapLimit instead of OOMing the host.
    if (guard_ != nullptr)
        guard_->onAlloc(aligned);
    // Reuse the most recently freed block of this size class: freed
    // memory is recycled immediately, so dangling pointers silently
    // alias new allocations.
    auto it = freeLists_.find(aligned);
    if (it != freeLists_.end() && !it->second.empty()) {
        uint64_t addr = it->second.back();
        it->second.pop_back();
        blocks_[addr].free = false;
        return addr;
    }
    uint64_t addr = heapEnd_;
    if (addr + aligned > NativeLayout::heapMax)
        throw EngineError("native heap exhausted");
    heapEnd_ += aligned;
    // Keep one page of slack mapped beyond the break (page rounding).
    heap_.resize(heapEnd_ - NativeLayout::heapBase + 4096);
    blocks_[addr] = Block{aligned, false};
    return addr;
}

uint64_t
NativeMemory::heapFree(uint64_t addr)
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || it->second.free)
        return 0;
    it->second.free = true;
    freeLists_[it->second.size].push_back(addr);
    if (guard_ != nullptr)
        guard_->onFree(it->second.size);
    return it->second.size;
}

uint64_t
NativeMemory::heapRealloc(uint64_t addr, uint64_t new_size)
{
    if (addr == 0)
        return heapAlloc(new_size);
    auto it = blocks_.find(addr);
    if (it == blocks_.end())
        return heapAlloc(new_size);
    if (it->second.size >= new_size && !it->second.free)
        return addr;
    uint64_t fresh = heapAlloc(new_size);
    uint64_t copy = std::min(it->second.size, new_size);
    std::vector<uint8_t> tmp(copy);
    readBytes(addr, tmp.data(), copy);
    writeBytes(fresh, tmp.data(), copy);
    heapFree(addr);
    return fresh;
}

uint64_t
NativeMemory::blockSize(uint64_t addr) const
{
    auto it = blocks_.find(addr);
    if (it == blocks_.end() || it->second.free)
        return 0;
    return it->second.size;
}

uint64_t
NativeMemory::stackAlloc(uint64_t size)
{
    uint64_t aligned = (size + 15) / 16 * 16;
    if (sp_ < NativeLayout::stackBase + aligned)
        throw NativeTrap(sp_ - aligned, true); // stack overflow
    sp_ -= aligned;
    return sp_;
}

std::vector<uint64_t>
NativeMemory::layoutGlobals(const Module &module, uint64_t gap)
{
    std::vector<uint64_t> addrs;
    uint64_t cursor = NativeLayout::globalBase;
    for (const auto &g : module.globals()) {
        uint64_t align = std::max<uint64_t>(g->valueType()->align(), 1);
        cursor = (cursor + align - 1) / align * align;
        globalAddrs_[g] = cursor;
        addrs.push_back(cursor);
        cursor += g->valueType()->size() + gap;
    }
    globalEnd_ = cursor;
    // Page-round the data segment and keep one slack page mapped.
    uint64_t mapped = (globalEnd_ - NativeLayout::globalBase + 4095) /
        4096 * 4096 + 4096;
    globals_.assign(mapped, 0);
    for (const auto &g : module.globals())
        applyInit(globalAddrs_[g], g->valueType(), g->init());
    return addrs;
}

uint64_t
NativeMemory::globalAddress(const GlobalVariable *g) const
{
    auto it = globalAddrs_.find(g);
    if (it == globalAddrs_.end())
        throw InternalError("unknown global " + g->name());
    return it->second;
}

uint64_t
NativeMemory::buildStringArray(const std::vector<std::string> &strings)
{
    // Strings first, then the pointer array, then the terminating NULL.
    std::vector<uint64_t> ptrs;
    for (const auto &s : strings) {
        uint64_t addr = argsEnd_;
        if (addr + s.size() + 1 >
            NativeLayout::argsBase + NativeLayout::argsSize) {
            throw EngineError("args region exhausted");
        }
        std::memcpy(args_.data() + (addr - NativeLayout::argsBase),
                    s.data(), s.size());
        args_[addr - NativeLayout::argsBase + s.size()] = 0;
        argsEnd_ += s.size() + 1;
        ptrs.push_back(addr);
    }
    argsEnd_ = (argsEnd_ + 7) / 8 * 8;
    uint64_t array_addr = argsEnd_;
    for (uint64_t p : ptrs) {
        writeInt(argsEnd_, 8, p);
        argsEnd_ += 8;
    }
    writeInt(argsEnd_, 8, 0);
    argsEnd_ += 8;
    return array_addr;
}

std::pair<uint64_t, uint64_t>
NativeMemory::buildMainArgs(const std::vector<std::string> &argv_strings,
                            const std::vector<std::string> &env_strings)
{
    auto writeString = [this](const std::string &s) {
        uint64_t addr = argsEnd_;
        if (addr + s.size() + 1 >
            NativeLayout::argsBase + NativeLayout::argsSize) {
            throw EngineError("args region exhausted");
        }
        std::memcpy(args_.data() + (addr - NativeLayout::argsBase),
                    s.data(), s.size());
        args_[addr - NativeLayout::argsBase + s.size()] = 0;
        argsEnd_ += s.size() + 1;
        return addr;
    };
    std::vector<uint64_t> argv_ptrs;
    for (const auto &s : argv_strings)
        argv_ptrs.push_back(writeString(s));
    std::vector<uint64_t> env_ptrs;
    for (const auto &s : env_strings)
        env_ptrs.push_back(writeString(s));

    argsEnd_ = (argsEnd_ + 7) / 8 * 8;
    uint64_t argv_addr = argsEnd_;
    for (uint64_t p : argv_ptrs) {
        writeInt(argsEnd_, 8, p);
        argsEnd_ += 8;
    }
    writeInt(argsEnd_, 8, 0);
    argsEnd_ += 8;
    uint64_t envp_addr = argsEnd_; // adjacent, like the real stack layout
    for (uint64_t p : env_ptrs) {
        writeInt(argsEnd_, 8, p);
        argsEnd_ += 8;
    }
    writeInt(argsEnd_, 8, 0);
    argsEnd_ += 8;
    return {argv_addr, envp_addr};
}

void
NativeMemory::applyInit(uint64_t addr, const Type *type,
                        const Initializer &init)
{
    switch (init.kind) {
      case Initializer::Kind::zero:
        return;
      case Initializer::Kind::intVal:
        writeInt(addr, static_cast<unsigned>(type->size()),
                 static_cast<uint64_t>(init.intValue));
        return;
      case Initializer::Kind::fpVal:
        if (type->kind() == TypeKind::f32) {
            float f = static_cast<float>(init.fpValue);
            uint32_t bits = 0;
            std::memcpy(&bits, &f, 4);
            writeInt(addr, 4, bits);
        } else {
            uint64_t bits = 0;
            std::memcpy(&bits, &init.fpValue, 8);
            writeInt(addr, 8, bits);
        }
        return;
      case Initializer::Kind::bytes:
        writeBytes(addr, init.bytes.data(), init.bytes.size());
        return;
      case Initializer::Kind::array: {
        uint64_t stride = type->elemType()->size();
        for (size_t i = 0; i < init.elems.size(); i++)
            applyInit(addr + i * stride, type->elemType(), init.elems[i]);
        return;
      }
      case Initializer::Kind::structVal: {
        const auto &fields = type->fields();
        for (size_t i = 0; i < init.elems.size() && i < fields.size(); i++)
            applyInit(addr + fields[i].offset, fields[i].type,
                      init.elems[i]);
        return;
      }
      case Initializer::Kind::globalRef:
        writeInt(addr, 8, globalAddress(init.global) +
                 static_cast<uint64_t>(init.addend));
        return;
      case Initializer::Kind::functionRef:
        writeInt(addr, 8, functionAddress(init.function->id()));
        return;
    }
}

} // namespace sulong
