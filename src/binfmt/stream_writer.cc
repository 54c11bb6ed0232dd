#include "binfmt/stream_writer.hh"

#include "support/logging.hh"

namespace icp
{

namespace
{

constexpr std::uint32_t sbf_magic = 0x31464253; // "SBF1"

} // namespace

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
SbfStreamWriter::putU8(std::uint8_t v)
{
    sink_.append(&v, 1);
}

void
SbfStreamWriter::putU32(std::uint32_t v)
{
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sink_.append(b, sizeof(b));
}

void
SbfStreamWriter::putU64(std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sink_.append(b, sizeof(b));
}

void
SbfStreamWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    sink_.append(s.data(), s.size());
}

void
SbfStreamWriter::beginImage(const BinaryImage &img)
{
    putU32(sbf_magic);
    putU8(static_cast<std::uint8_t>(img.arch));
    putU8(img.pie ? 1 : 0);
    putU64(img.prefBase);
    putU64(img.entry);
    putU64(img.tocBase);
    putString(img.soname);
    putU8(img.features.cppExceptions);
    putU8(img.features.isGo);
    putU8(img.features.rustMetadata);
    putU8(img.features.symbolVersioning);
    putU8(img.features.fortranComponent);
    putU32(static_cast<std::uint32_t>(img.sections.size()));
}

void
SbfStreamWriter::sectionHeader(const Section &s,
                               std::uint64_t payloadLen)
{
    putString(s.name);
    putU8(static_cast<std::uint8_t>(s.kind));
    putU64(s.addr);
    putU64(s.memSize);
    putU8(static_cast<std::uint8_t>((s.loadable ? 1 : 0) |
                                    (s.executable ? 2 : 0) |
                                    (s.writable ? 4 : 0)));
    putU32(static_cast<std::uint32_t>(payloadLen));
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
    putU32(static_cast<std::uint32_t>(img.symbols.size()));
    for (const auto &sym : img.symbols) {
        putString(sym.name);
        putU8(static_cast<std::uint8_t>(sym.kind));
        putU64(sym.addr);
        putU64(sym.size);
    }
    putU32(static_cast<std::uint32_t>(img.relocs.size()));
    for (const auto &rel : img.relocs) {
        putU64(rel.site);
        putU64(static_cast<std::uint64_t>(rel.addend));
    }
    putU32(static_cast<std::uint32_t>(img.linkRelocs.size()));
    for (const auto &rel : img.linkRelocs) {
        putU64(rel.site);
        putString(rel.symbol);
        putU64(static_cast<std::uint64_t>(rel.addend));
    }
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
