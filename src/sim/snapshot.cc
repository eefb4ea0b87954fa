#include "sim/snapshot.hh"

namespace hmcsim
{

void
cloneEventQueue(const EventQueue &src, EventQueue &dst,
                const SnapshotFixup &fixup,
                const std::vector<EventRelocator> &relocators)
{
    dst.restoreBegin(src.now(), src.seqCounter(), src.doneSeqBound());
    for (const auto &view : src.pendingSnapshot()) {
        HMCSIM_CHECK(view.ev->trivialCapture(),
                     "snapshot fork: pending event holds a non-trivial "
                     "capture (seq=%llu when=%llu)",
                     static_cast<unsigned long long>(view.seq),
                     static_cast<unsigned long long>(view.when));
        const EventRelocator *handler = nullptr;
        for (const auto &r : relocators) {
            if (r.invoke == view.ev->invokeTarget()) {
                handler = &r;
                break;
            }
        }
        HMCSIM_CHECK(handler != nullptr,
                     "snapshot fork: pending event of unknown type "
                     "(seq=%llu when=%llu) -- only the audited "
                     "main-path captures can be forked",
                     static_cast<unsigned long long>(view.seq),
                     static_cast<unsigned long long>(view.when));
        alignas(eventInlineAlign) unsigned char capture[eventInlineBytes];
        std::memcpy(capture, view.ev->captureBytes(), eventInlineBytes);
        handler->relocate(capture, fixup);
        dst.schedule(EventQueue::Slot{view.when, view.seq},
                     Event::fromCaptureImage(handler->invoke, capture));
    }
    dst.restoreFinish(src.executed(), src.eventsSinceCheckCount());
}

} // namespace hmcsim
