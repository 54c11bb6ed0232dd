/**
 * @file
 * Streaming SBF serializer: writes a BinaryImage to a byte sink
 * section by section, so a producer can emit one section's payload
 * in bounded-size chunks instead of materializing the whole image
 * in memory first.
 *
 * Invariants:
 *  - The byte stream produced is identical to the historical
 *    BinaryImage::serialize() layout; serialize() itself is now a
 *    VectorSink client of this writer.
 *  - Output is append-only: chunks pushed through addChunk() must
 *    arrive in ascending offset order with no gap or overlap, and a
 *    streamed section's chunks must cover [0, payloadLen) exactly.
 *    Either violation is a producer bug and aborts.
 */

#ifndef ICP_BINFMT_STREAM_WRITER_HH
#define ICP_BINFMT_STREAM_WRITER_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "binfmt/image.hh"

namespace icp
{

/** Append-only byte sink. */
class SbfSink
{
  public:
    virtual ~SbfSink() = default;
    virtual void append(const void *data, std::size_t len) = 0;
};

/** Sink into a caller-owned byte vector. */
class VectorSink final : public SbfSink
{
  public:
    explicit VectorSink(std::vector<std::uint8_t> &out) : out_(out) {}

    void append(const void *data, std::size_t len) override;

  private:
    std::vector<std::uint8_t> &out_;
};

/** Sink into an open stdio stream (caller keeps ownership). */
class FileSink final : public SbfSink
{
  public:
    explicit FileSink(std::FILE *f) : f_(f) {}

    void append(const void *data, std::size_t len) override;

    /** False when any fwrite failed; check before trusting. */
    bool ok() const { return ok_; }

  private:
    std::FILE *f_;
    bool ok_ = true;
};

/**
 * SBF stream writer. Usage, in strict order:
 *
 *   beginImage(img);
 *   for each section (in img.sections order):
 *       writeSection(s)                       // materialized payload
 *     or
 *       beginStreamedSection(s, payloadLen);
 *       addChunk(off, data, len); ...         // in order, exactly
 *       endStreamedSection();                 // covering payloadLen
 *   finishImage(img);                         // symbols + relocs
 */
class SbfStreamWriter
{
  public:
    explicit SbfStreamWriter(SbfSink &sink) : sink_(sink) {}

    void beginImage(const BinaryImage &img);
    void writeSection(const Section &s);
    void beginStreamedSection(const Section &s,
                              std::uint64_t payloadLen);
    void addChunk(std::uint64_t off, const std::uint8_t *data,
                  std::size_t len);
    void endStreamedSection();
    void finishImage(const BinaryImage &img);

  private:
    /** Append @p bytes, packed by isa/bytes.hh, and clear them. */
    void emit(std::vector<std::uint8_t> &bytes);
    void sectionHeader(const Section &s, std::uint64_t payloadLen);

    SbfSink &sink_;

    // Streamed-section state.
    bool streaming_ = false;
    std::uint64_t payloadLen_ = 0;
    std::uint64_t cursor_ = 0; ///< next payload offset expected
};

/**
 * Serialize @p img through the streaming writer with every section
 * payload already materialized. BinaryImage::serialize() is this
 * with a VectorSink.
 */
void streamImage(const BinaryImage &img, SbfSink &sink);

} // namespace icp

#endif // ICP_BINFMT_STREAM_WRITER_HH
