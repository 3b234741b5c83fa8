/**
 * @file
 * Checkpoint coordinator implementation.
 */

#include "sim/checkpoint.hh"

#include "sim/field_visitor.hh"

namespace omega {

namespace {

/** Signal latch; written by the handler, read at iteration boundaries. */
volatile std::sig_atomic_t g_checkpoint_signal = 0;

} // namespace

void
requestCheckpointInterrupt(int signal)
{
    g_checkpoint_signal = signal;
}

int
pendingCheckpointSignal()
{
    return g_checkpoint_signal;
}

void
clearCheckpointSignal()
{
    g_checkpoint_signal = 0;
}

void
CheckpointCoordinator::setResumePayload(std::vector<std::uint8_t> payload)
{
    // Peek the resume header so the harness can match it to its run.
    SnapshotReader r(payload);
    resume_key_ = r.getString();
    resume_iteration_ = r.getU64();
    if (!r.getBool()) {
        throw SnapshotStateError(
            "snapshot: run '" + resume_key_ +
            "' is a post-mortem state dump, not a resumable checkpoint");
    }
    resume_payload_ = std::move(payload);
    resume_pending_ = true;
}

void
CheckpointCoordinator::dropResumeFor(const std::string &run_key)
{
    if (resume_pending_ && resume_key_ == run_key) {
        resume_pending_ = false;
        resume_payload_.clear();
    }
}

void
CheckpointCoordinator::beginRun(std::string run_key)
{
    run_key_ = std::move(run_key);
    sections_.clear();
    armed_ = false;
    restored_iteration_ = 0;
}

void
CheckpointCoordinator::registerSection(
    std::string name, std::function<void(FieldVisitor &)> visit)
{
    sections_.push_back({std::move(name), std::move(visit)});
}

bool
CheckpointCoordinator::maybeRestore()
{
    armed_ = true;
    if (!resume_pending_ || resume_key_ != run_key_)
        return false;

    SnapshotReader r(resume_payload_);
    // Re-read the header this payload was matched by.
    (void)r.getString();
    const std::uint64_t iteration = r.getU64();
    (void)r.getBool();

    SnapshotLoader loader(r);
    const std::uint64_t count = r.getU64();
    if (count != sections_.size()) {
        throw SnapshotStateError(
            "snapshot: run '" + run_key_ + "' holds " +
            std::to_string(count) + " sections, this run registered " +
            std::to_string(sections_.size()));
    }
    for (const Section &section : sections_) {
        const std::string name = r.getString();
        if (name != section.name) {
            throw SnapshotStateError("snapshot: expected section '" +
                                     section.name + "', found '" + name +
                                     "'");
        }
        const std::uint64_t size = r.getU64();
        const std::size_t end = r.position() + size;
        section.visit(loader);
        if (r.position() != end) {
            throw SnapshotStateError(
                "snapshot: section '" + section.name + "' consumed " +
                std::to_string(r.position() - (end - size)) + " of " +
                std::to_string(size) + " bytes");
        }
    }
    if (r.remaining() != 0) {
        throw SnapshotStateError(
            "snapshot: " + std::to_string(r.remaining()) +
            " unconsumed payload bytes after the last section");
    }

    restored_iteration_ = iteration;
    resume_pending_ = false;
    resume_payload_.clear();
    return true;
}

void
CheckpointCoordinator::serializeTo(SnapshotWriter &w,
                                   std::uint64_t iteration,
                                   bool resumable) const
{
    w.putString(run_key_);
    w.putU64(iteration);
    w.putBool(resumable);
    w.putU64(sections_.size());
    SnapshotSaver saver(w);
    for (const Section &section : sections_) {
        w.putString(section.name);
        const std::size_t blob = w.beginBlob();
        section.visit(saver);
        w.endBlob(blob);
    }
}

void
CheckpointCoordinator::saveNow(std::uint64_t iteration)
{
    SnapshotWriter w;
    serializeTo(w, iteration, /*resumable=*/true);
    writeSnapshotFile(save_path_, w.bytes());
}

void
CheckpointCoordinator::onIterationEnd(std::uint64_t iteration)
{
    if (!armed_)
        return;
    if (test_stop && test_stop(iteration)) {
        if (savingEnabled())
            saveNow(iteration);
        throw CheckpointInterrupt(save_path_, iteration, /*signal=*/0);
    }
    const int signal = pendingCheckpointSignal();
    if (signal != 0) {
        if (savingEnabled())
            saveNow(iteration);
        throw CheckpointInterrupt(save_path_, iteration, signal);
    }
    if (savingEnabled() && every_ != 0 && iteration % every_ == 0)
        saveNow(iteration);
}

} // namespace omega
