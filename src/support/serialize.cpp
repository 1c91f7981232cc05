#include "support/serialize.hpp"

#include <bit>
#include <cstring>

#include "support/hash.hpp"

namespace cmswitch {

namespace {

/** Serialise @p value as @p Bytes little-endian bytes. */
template <std::size_t Bytes, typename T>
void
appendLe(std::string *out, T value)
{
    static_assert(sizeof(T) == Bytes);
    char bytes[Bytes];
    for (std::size_t i = 0; i < Bytes; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    out->append(bytes, Bytes);
}

template <std::size_t Bytes, typename T>
T
loadLe(const void *bytes)
{
    static_assert(sizeof(T) == Bytes);
    const auto *p = static_cast<const unsigned char *>(bytes);
    T value = 0;
    for (std::size_t i = 0; i < Bytes; ++i)
        value |= static_cast<T>(p[i]) << (8 * i);
    return value;
}

} // namespace

std::string
wrapEnvelope(std::string_view tag, std::string_view payload)
{
    BinaryWriter file;
    file.writeRaw(tag);
    file.writeU64(static_cast<u64>(payload.size()));
    file.writeU64(fnv1a64(payload));
    file.writeRaw(payload);
    return file.take();
}

bool
unwrapEnvelope(std::string_view tag, std::string_view data,
               std::string_view *payload, std::string *error)
{
    auto fail = [error](const char *reason) {
        if (error)
            *error = reason;
        return false;
    };
    try {
        BinaryReader r(data);
        if (r.readRaw(tag.size()) != tag)
            return fail("format tag mismatch (not this format, or a "
                        "different format version)");
        u64 length = r.readU64();
        u64 digest = r.readU64();
        if (length != r.remaining())
            return fail("payload length mismatch (truncated or trailing "
                        "bytes)");
        std::string_view body = data.substr(data.size() - r.remaining());
        if (fnv1a64(body) != digest)
            return fail("payload digest mismatch (corrupt)");
        *payload = body;
        return true;
    } catch (const std::exception &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

BinaryWriter &
BinaryWriter::writeU8(u8 value)
{
    out_.push_back(static_cast<char>(value));
    return *this;
}

BinaryWriter &
BinaryWriter::writeU32(u32 value)
{
    appendLe<4>(&out_, value);
    return *this;
}

BinaryWriter &
BinaryWriter::writeU64(u64 value)
{
    appendLe<8>(&out_, value);
    return *this;
}

BinaryWriter &
BinaryWriter::writeS64(s64 value)
{
    return writeU64(static_cast<u64>(value));
}

BinaryWriter &
BinaryWriter::writeF64(double value)
{
    return writeU64(std::bit_cast<u64>(value));
}

BinaryWriter &
BinaryWriter::writeBool(bool value)
{
    return writeU8(value ? 1 : 0);
}

BinaryWriter &
BinaryWriter::writeString(std::string_view text)
{
    writeU64(static_cast<u64>(text.size()));
    out_.append(text);
    return *this;
}

BinaryWriter &
BinaryWriter::writeRaw(std::string_view bytes)
{
    out_.append(bytes);
    return *this;
}

const void *
BinaryReader::need(std::size_t count, const char *what)
{
    if (count > data_.size() - pos_)
        throw SerializeError(std::string("truncated input reading ") + what);
    const void *at = data_.data() + pos_;
    pos_ += count;
    return at;
}

u8
BinaryReader::readU8()
{
    return *static_cast<const unsigned char *>(need(1, "u8"));
}

u32
BinaryReader::readU32()
{
    return loadLe<4, u32>(need(4, "u32"));
}

u64
BinaryReader::readU64()
{
    return loadLe<8, u64>(need(8, "u64"));
}

s64
BinaryReader::readS64()
{
    return static_cast<s64>(readU64());
}

double
BinaryReader::readF64()
{
    return std::bit_cast<double>(readU64());
}

bool
BinaryReader::readBool()
{
    u8 value = readU8();
    if (value > 1)
        throw SerializeError("bool byte out of range");
    return value == 1;
}

std::string
BinaryReader::readString()
{
    u64 length = readU64();
    if (length > data_.size() - pos_)
        throw SerializeError("string length exceeds remaining input");
    return std::string(
        static_cast<const char *>(need(static_cast<std::size_t>(length),
                                       "string bytes")),
        static_cast<std::size_t>(length));
}

std::string
BinaryReader::readRaw(std::size_t count)
{
    return std::string(static_cast<const char *>(need(count, "raw bytes")),
                       count);
}

s64
BinaryReader::readBounded(s64 max_value, const char *what)
{
    s64 value = readS64();
    if (value < 0 || value > max_value)
        throw SerializeError(std::string(what) + " out of range");
    return value;
}

void
BinaryReader::expectEnd() const
{
    if (!atEnd())
        throw SerializeError("trailing bytes after payload");
}

} // namespace cmswitch
