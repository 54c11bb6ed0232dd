/**
 * @file
 * Little-endian byte packing helpers shared by the codecs and the
 * binary-format serializers, and the one bounded reader that every
 * untrusted byte format (SBF container, .eh_frame, address maps,
 * cache files) is decoded through.
 */

#ifndef ICP_ISA_BYTES_HH
#define ICP_ISA_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace icp
{

inline void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

inline void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** A u32 length followed by the bytes (ByteReader::str's format). */
inline void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

inline std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/**
 * Bounds-latched sequential little-endian reader: the first
 * out-of-range read flips failed() and every later read returns
 * zeros, so decoders can run straight through and check once at
 * the end. pos() stays at the field that did not fit.
 */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool failed() const { return failed_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const std::uint32_t v = getU32(data_ + pos_);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        const std::uint64_t v = getU64(data_ + pos_);
        pos_ += 8;
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      len);
        pos_ += len;
        return s;
    }

    /** @p len bytes in place (null once failed). */
    const std::uint8_t *
    blob(std::size_t len)
    {
        if (!need(len))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += len;
        return p;
    }

  private:
    bool
    need(std::size_t len)
    {
        if (failed_ || len > size_ - pos_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/** Sign-extend the low @p bits of v. */
inline std::int64_t
signExtend(std::uint64_t v, unsigned bits)
{
    const std::uint64_t m = 1ULL << (bits - 1);
    v &= (bits == 64) ? ~0ULL : ((1ULL << bits) - 1);
    return static_cast<std::int64_t>((v ^ m) - m);
}

/** True iff v fits in a signed field of @p bits. */
inline bool
fitsSigned(std::int64_t v, unsigned bits)
{
    const std::int64_t lo = -(1LL << (bits - 1));
    const std::int64_t hi = (1LL << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

} // namespace icp

#endif // ICP_ISA_BYTES_HH
