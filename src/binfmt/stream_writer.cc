#include "binfmt/stream_writer.hh"

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

void
VectorSink::append(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    out_.insert(out_.end(), bytes, bytes + len);
}

void
FileSink::append(const void *data, std::size_t len)
{
    if (ok_ && len != 0 && std::fwrite(data, 1, len, f_) != len)
        ok_ = false;
}

void
SbfStreamWriter::emit(std::vector<std::uint8_t> &bytes)
{
    sink_.append(bytes.data(), bytes.size());
    bytes.clear();
}

void
SbfStreamWriter::beginImage(const BinaryImage &img)
{
    std::vector<std::uint8_t> out;
    putU32(out, sbf_magic);
    putU8(out, static_cast<std::uint8_t>(img.arch));
    putU8(out, img.pie ? 1 : 0);
    putU64(out, img.prefBase);
    putU64(out, img.entry);
    putU64(out, img.tocBase);
    putString(out, img.soname);
    putU8(out, img.features.cppExceptions);
    putU8(out, img.features.isGo);
    putU8(out, img.features.rustMetadata);
    putU8(out, img.features.symbolVersioning);
    putU8(out, img.features.fortranComponent);
    putU32(out, static_cast<std::uint32_t>(img.sections.size()));
    emit(out);
}

void
SbfStreamWriter::sectionHeader(const Section &s,
                               std::uint64_t payloadLen)
{
    std::vector<std::uint8_t> out;
    putString(out, s.name);
    putU8(out, static_cast<std::uint8_t>(s.kind));
    putU64(out, s.addr);
    putU64(out, s.memSize);
    putU8(out, static_cast<std::uint8_t>((s.loadable ? 1 : 0) |
                                         (s.executable ? 2 : 0) |
                                         (s.writable ? 4 : 0)));
    putU32(out, static_cast<std::uint32_t>(payloadLen));
    emit(out);
}

void
SbfStreamWriter::writeSection(const Section &s)
{
    icp_assert(!streaming_, "writeSection inside streamed section");
    sectionHeader(s, s.bytes.size());
    sink_.append(s.bytes.data(), s.bytes.size());
}

void
SbfStreamWriter::beginStreamedSection(const Section &s,
                                      std::uint64_t payloadLen)
{
    icp_assert(!streaming_, "nested streamed section");
    icp_assert(payloadLen <= s.memSize,
               "streamed payload larger than section memSize");
    sectionHeader(s, payloadLen);
    streaming_ = true;
    payloadLen_ = payloadLen;
    cursor_ = 0;
}

void
SbfStreamWriter::addChunk(std::uint64_t off, const std::uint8_t *data,
                          std::size_t len)
{
    icp_assert(streaming_, "addChunk outside streamed section");
    icp_assert(off == cursor_,
               "streamed chunk at payload offset %llu, expected %llu",
               static_cast<unsigned long long>(off),
               static_cast<unsigned long long>(cursor_));
    icp_assert(len <= payloadLen_ - cursor_,
               "chunk past streamed payload length");
    sink_.append(data, len);
    cursor_ += len;
}

void
SbfStreamWriter::endStreamedSection()
{
    icp_assert(streaming_, "endStreamedSection with no open section");
    icp_assert(cursor_ == payloadLen_,
               "streamed payload covers %llu of %llu bytes",
               static_cast<unsigned long long>(cursor_),
               static_cast<unsigned long long>(payloadLen_));
    streaming_ = false;
}

void
SbfStreamWriter::finishImage(const BinaryImage &img)
{
    icp_assert(!streaming_, "finishImage inside streamed section");
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(img.symbols.size()));
    for (const auto &sym : img.symbols) {
        putString(out, sym.name);
        putU8(out, static_cast<std::uint8_t>(sym.kind));
        putU64(out, sym.addr);
        putU64(out, sym.size);
        emit(out);
    }
    putU32(out, static_cast<std::uint32_t>(img.relocs.size()));
    for (const auto &rel : img.relocs) {
        putU64(out, rel.site);
        putU64(out, static_cast<std::uint64_t>(rel.addend));
        emit(out);
    }
    putU32(out, static_cast<std::uint32_t>(img.linkRelocs.size()));
    for (const auto &rel : img.linkRelocs) {
        putU64(out, rel.site);
        putString(out, rel.symbol);
        putU64(out, static_cast<std::uint64_t>(rel.addend));
        emit(out);
    }
    emit(out);
}

void
streamImage(const BinaryImage &img, SbfSink &sink)
{
    SbfStreamWriter w(sink);
    w.beginImage(img);
    for (const Section &s : img.sections)
        w.writeSection(s);
    w.finishImage(img);
}

} // namespace icp
