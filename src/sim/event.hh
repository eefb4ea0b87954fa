// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Allocation-free event callable for the simulation hot path.
 *
 * Every scheduled event used to be a `std::function<void()>`, which
 * heap-allocates once its captures outgrow the implementation's tiny
 * inline buffer (16 bytes on libstdc++). At tens of millions of
 * events per simulated millisecond that allocation -- and the free on
 * execution -- dominates the scheduling cost. `Event` replaces it
 * with a fixed-size small-buffer-optimized callable that *never*
 * allocates: a callable that does not fit the inline budget is a
 * compile error, not a silent heap fallback.
 *
 * The inline budget (eventInlineBytes) is sized for the simulator's
 * audited capture sets -- a receiver pointer plus a pooled Packet
 * pointer plus a couple of scalars (see docs/performance.md). Big
 * state (a Packet, a config struct) must be hoisted into the owning
 * component or a pool and captured by pointer; the static_assert
 * below names the offender when someone forgets.
 *
 * Trivially-copyable captures (the common case: `this`, pooled
 * pointers, indices) take a fast path where the Event itself is
 * relocated with memcpy and destruction is a no-op. Non-trivial
 * callables (e.g. a std::function holding test scaffolding) are still
 * supported inline through a manager function, as long as they fit.
 */

#ifndef HMCSIM_SIM_EVENT_HH
#define HMCSIM_SIM_EVENT_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hmcsim
{

/** Inline capture budget of an Event, in bytes. */
constexpr std::size_t eventInlineBytes = 48;

/** Maximum capture alignment an Event supports. */
constexpr std::size_t eventInlineAlign = 16;

/**
 * A move-only, never-allocating `void()` callable.
 *
 * Empty Events are valid (and not callable); the event queue only
 * stores engaged ones.
 */
class Event
{
  public:
    /** Signature of the type-erased invoke thunk. */
    using InvokeFn = void (*)(void *);

    /**
     * The invoke thunk instantiated for callable type @p D. Exposed so
     * snapshot code (sim/snapshot.hh) can identify a stored callable
     * by comparing invokeTarget() against &invokeAs<KnownType> --
     * the per-type thunk address is the callable's runtime identity.
     */
    template <typename D>
    static void
    invokeAs(void *self)
    {
        (*static_cast<D *>(self))();
    }

    Event() = default;

    /** Wrap any callable whose captures fit the inline budget. */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Event>>>
    Event(F &&fn) // NOLINT(google-explicit-constructor)
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Drop any stored callable, then construct @p fn directly in this
     * Event's storage. Building an Event elsewhere and moving it here
     * relocates the capture once more, re-reading a stack temporary
     * that was only just written; emplacing builds it once, where it
     * will run.
     */
    template <typename F, typename D = std::decay_t<F>>
    void
    emplace(F &&fn)
    {
        static_assert(!std::is_same_v<D, Event>,
                      "move-assign an Event instead of emplacing it");
        static_assert(std::is_invocable_r_v<void, D &>,
                      "Event callables take no arguments and return "
                      "void");
        static_assert(sizeof(D) <= eventInlineBytes,
                      "event capture exceeds the inline budget "
                      "(eventInlineBytes): hoist large state (e.g. a "
                      "Packet) into the owning component or a "
                      "PacketPool and capture a pointer instead");
        static_assert(alignof(D) <= eventInlineAlign,
                      "event capture is over-aligned for the inline "
                      "buffer");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event captures must be nothrow "
                      "move-constructible (the queue relocates "
                      "entries)");
        reset();
        ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
        invoke_ = &invokeAs<D>;
        if constexpr (!(std::is_trivially_copyable_v<D> &&
                        std::is_trivially_destructible_v<D>)) {
            manager_ = [](Op op, void *dst, void *src) {
                switch (op) {
                  case Op::Relocate:
                    ::new (dst) D(std::move(*static_cast<D *>(src)));
                    static_cast<D *>(src)->~D();
                    break;
                  case Op::Destroy:
                    static_cast<D *>(dst)->~D();
                    break;
                }
            };
        }
    }

    Event(Event &&other) noexcept { moveFrom(other); }

    Event &
    operator=(Event &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    ~Event() { reset(); }

    /** Destroy the stored callable, if any, leaving the Event empty. */
    void
    reset()
    {
        if (manager_) {
            manager_(Op::Destroy, storage, nullptr);
            manager_ = nullptr;
        }
        invoke_ = nullptr;
    }

    /** True when a callable is stored. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Execute the callable (must be engaged). */
    void operator()() { invoke_(storage); }

    /**
     * The stored callable's invoke thunk, its runtime type identity.
     * Compare against &invokeAs<T> to recognize a known capture type.
     */
    InvokeFn invokeTarget() const { return invoke_; }

    /**
     * True when the stored callable is trivially copyable (and thus
     * trivially destructible): its bytes can be memcpy'd into another
     * Event. Non-trivial callables carry a manager and cannot be
     * cloned byte-wise.
     */
    bool trivialCapture() const { return manager_ == nullptr; }

    /** Raw capture bytes (for snapshot cloning of trivial captures). */
    const void *captureBytes() const { return storage; }

    /**
     * Rebuild an Event from a known invoke thunk and a capture image.
     * Only valid for trivially-copyable captures -- the snapshot layer
     * verifies trivialCapture() on the source before calling this.
     */
    static Event
    fromCaptureImage(InvokeFn invoke, const void *bytes)
    {
        Event ev;
        ev.invoke_ = invoke;
        std::memcpy(ev.storage, bytes, eventInlineBytes);
        return ev;
    }

  private:
    enum class Op
    {
        Relocate,
        Destroy,
    };

    void
    moveFrom(Event &other)
    {
        invoke_ = other.invoke_;
        manager_ = other.manager_;
        if (manager_) {
            manager_(Op::Relocate, storage, other.storage);
        } else if (invoke_) {
            std::memcpy(storage, other.storage, eventInlineBytes);
        }
        other.invoke_ = nullptr;
        other.manager_ = nullptr;
    }

    alignas(eventInlineAlign) unsigned char storage[eventInlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*manager_)(Op, void *, void *) = nullptr;
};

} // namespace hmcsim

#endif // HMCSIM_SIM_EVENT_HH
