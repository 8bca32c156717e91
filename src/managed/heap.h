/**
 * @file
 * Managed heap: allocation typing (Section 3.3) and checked free (Fig. 8).
 */

#ifndef MS_MANAGED_HEAP_H
#define MS_MANAGED_HEAP_H

#include "managed/factory.h"
#include "support/limits.h"

namespace sulong
{

/**
 * A heap object whose element type is not yet known (an unhinted
 * malloc). The typed payload is materialized on the first read or write
 * — the paper's allocation-memento mechanism — and the observed type is
 * propagated back to the allocation site through @c mementoSlot.
 */
class LazyHeapObject : public ManagedObject
{
  public:
    LazyHeapObject(int64_t size, const Type **memento_slot)
        : ManagedObject(ObjectKind::i8Array, StorageKind::heap),
          size_(size), mementoSlot_(memento_slot)
    {}

    int64_t
    byteSize() const override
    {
        return inner_ ? inner_->byteSize() : size_;
    }

    void read(AccessClass cls, unsigned size, int64_t offset,
              uint64_t &out_int, Address &out_addr) override;
    void write(AccessClass cls, unsigned size, int64_t offset,
               uint64_t bits, const Address &addr) override;

    bool isHeap() const override { return true; }
    void free() override;

    std::string
    describe() const override
    {
        return inner_ ? inner_->describe()
                      : "Heap[" + std::to_string(size_) + " bytes]";
    }

    /** The typed payload (null until the first access). */
    ManagedObject *inner() const { return inner_.get(); }

    void
    markAllInitialized() override
    {
        if (inner_)
            inner_->markAllInitialized();
        else
            zeroed_ = true; // applied when the payload materializes
    }

  private:
    void materialize(AccessClass cls, unsigned size);

    int64_t size_;
    const Type **mementoSlot_;
    ObjRef inner_;
    bool zeroed_ = false;
};

/**
 * Heap allocation and deallocation entry points of the managed engine.
 */
class ManagedHeap
{
  public:
    /**
     * @param guard optional per-run resource guard; every allocation
     * and free is metered against its heap limits (allocation bombs
     * terminate with TerminationKind::heapLimit instead of OOMing the
     * host).
     */
    explicit ManagedHeap(TypeContext &types, ResourceGuard *guard = nullptr)
        : types_(types), guard_(guard)
    {}

    /**
     * malloc: when @p elem_hint is known (from the allocation site's
     * static type or a prior memento), allocate a typed array right away;
     * otherwise allocate a LazyHeapObject that types itself on first
     * access and writes the observed element type into @p memento_slot.
     */
    Address allocate(int64_t size, const Type *elem_hint,
                     const Type **memento_slot);

    /** calloc: same as allocate (managed payloads are zeroed anyway). */
    Address allocateZeroed(int64_t size, const Type *elem_hint,
                           const Type **memento_slot);

    /** realloc: grow/shrink preserving content; frees the old object. */
    Address reallocate(const Address &old, int64_t new_size,
                       const Type **memento_slot);

    /** free() with the paper's checks (Fig. 8). */
    void deallocate(const Address &ptr);

    /** Bytes logically allocated and not yet freed (for stats/tests). */
    int64_t liveBytes() const { return liveBytes_; }
    uint64_t allocationCount() const { return allocationCount_; }
    /** Cumulative totals for the execution profiler (never decrease). */
    uint64_t allocBytesTotal() const { return allocBytesTotal_; }
    uint64_t freedBytesTotal() const { return freedBytesTotal_; }
    uint64_t freeCount() const { return freeCount_; }

    /**
     * Leak census at program exit (paper Section 6): blocks that were
     * allocated but never freed. The managed model tracks allocations
     * exactly, so no reachability heuristics are needed.
     */
    struct LeakInfo
    {
        uint64_t blocks = 0;
        int64_t bytes = 0;
    };
    LeakInfo liveLeaks() const;

  private:
    TypeContext &types_;
    ResourceGuard *guard_;
    int64_t liveBytes_ = 0;
    uint64_t allocationCount_ = 0;
    uint64_t allocBytesTotal_ = 0;
    uint64_t freedBytesTotal_ = 0;
    uint64_t freeCount_ = 0;
    /// Live heap allocations (weak pointers; entries removed on free).
    std::map<const ManagedObject *, int64_t> live_;

    void trackAlloc(const Address &addr, int64_t size);
};

} // namespace sulong

#endif // MS_MANAGED_HEAP_H
