/**
 * @file
 * Move-only type-erased callable with inline small-capture storage.
 *
 * This is the simulator's one continuation type (docs/PERFORMANCE.md,
 * "Per-access path"): the event queue's slots, the NoC's flights and
 * every callback the cpu/mem/thrifty/workloads layers hand each other
 * are instances of it. A callable whose captures fit the inline
 * buffer is stored in place, so passing a `[this, tid]` continuation
 * down a load, through the coherence protocol and back costs no heap
 * allocation; a wider one falls back to a single allocation.
 */

#ifndef TB_SIM_INLINE_FUNCTION_HH_
#define TB_SIM_INLINE_FUNCTION_HH_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace tb {

template <typename Signature, std::size_t InlineBytes>
class InlineFunction;

/**
 * Callable of signature R(Args...). Callables up to @p InlineBytes
 * (with max_align_t alignment and a noexcept move) live inside the
 * object; larger ones are heap-allocated once. Moving relocates the
 * callable and leaves the source empty.
 */
template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    static constexpr std::size_t kInlineBytes = InlineBytes;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {} // NOLINT: implicit by design

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
    InlineFunction(F&& f) // NOLINT: implicit by design
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const { return ops != nullptr; }

    /** Invoke the held callable (must not be empty). */
    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

    /**
     * Construct @p f in place. The function must be empty — this is
     * the schedule hot path writing straight into a recycled pool
     * slot, so no destroy-and-relocate round trip happens. An
     * InlineFunction of the same type is taken over rather than
     * wrapped.
     */
    template <typename F>
    void
    emplace(F&& f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>)
            moveFrom(f);
        else
            construct(std::forward<F>(f));
    }

    /**
     * Invoke then destroy the held callable in one indirect call,
     * leaving the function empty (must not be empty on entry). It is
     * marked empty *before* the callable runs, so the owning slot
     * stays consistent if the callable re-enters its owner.
     */
    R
    consume(Args... args)
    {
        const Ops* o = ops;
        ops = nullptr;
        return o->consume(buf, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (no-op if empty). */
    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    /** True if @p Fn would be stored inline (no heap allocation). */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        R (*invoke)(void* self, Args&&... args);
        void (*destroy)(void* self);
        /** Move-construct at @p dst from @p src, then destroy src. */
        void (*relocate)(void* dst, void* src);
        /** Invoke, then destroy (the fire path, fused). */
        R (*consume)(void* self, Args&&... args);
    };

    template <typename Fn>
    static Fn* at(void* p) { return std::launder(reinterpret_cast<Fn*>(p)); }

    template <typename Fn>
    static Fn*& heapAt(void* p) { return *reinterpret_cast<Fn**>(p); }

    /** Destroys the callable when the fused consume() call unwinds or
     *  returns, so a non-void result can be returned directly. */
    template <typename Fn, bool Heap>
    struct DestroyOnExit
    {
        Fn* f;
        ~DestroyOnExit()
        {
            if constexpr (Heap)
                delete f;
            else
                f->~Fn();
        }
    };

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void* p, Args&&... args) -> R {
            return (*at<Fn>(p))(std::forward<Args>(args)...);
        },
        [](void* p) { at<Fn>(p)->~Fn(); },
        [](void* dst, void* src) {
            Fn* s = at<Fn>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void* p, Args&&... args) -> R {
            DestroyOnExit<Fn, false> guard{at<Fn>(p)};
            return (*guard.f)(std::forward<Args>(args)...);
        },
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void* p, Args&&... args) -> R {
            return (*heapAt<Fn>(p))(std::forward<Args>(args)...);
        },
        [](void* p) { delete heapAt<Fn>(p); },
        [](void* dst, void* src) { heapAt<Fn>(dst) = heapAt<Fn>(src); },
        [](void* p, Args&&... args) -> R {
            DestroyOnExit<Fn, true> guard{heapAt<Fn>(p)};
            return (*guard.f)(std::forward<Args>(args)...);
        },
    };

    template <typename F>
    void
    construct(F&& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(buf)) Fn(std::forward<F>(f));
            ops = &kInlineOps<Fn>;
        } else {
            heapAt<Fn>(buf) = new Fn(std::forward<F>(f));
            ops = &kHeapOps<Fn>;
        }
    }

    void
    moveFrom(InlineFunction& other)
    {
        if (other.ops) {
            other.ops->relocate(buf, other.buf);
            ops = other.ops;
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops = nullptr;
};

/**
 * Inline capture budget of the model's continuations: room for the
 * owner pointer plus a few ids and ticks, e.g. `[this, tid]` or
 * `[this, line]`. It is also the event queue's slot width.
 */
inline constexpr std::size_t kContinuationBytes = 48;

/** Runs once the step it follows has completed. */
using Continuation = InlineFunction<void(), kContinuationBytes>;

/** A continuation receiving a loaded or fetched value. */
using ValueContinuation =
    InlineFunction<void(std::uint64_t), kContinuationBytes>;

} // namespace tb

#endif // TB_SIM_INLINE_FUNCTION_HH_
