#include "plfs/index_format.hpp"

#include <bit>
#include <cstring>

#include "posix/fd.hpp"

namespace ldplfs::plfs {

static_assert(std::endian::native == std::endian::little,
              "index droppings are little-endian on disk");

std::string encode_index_header(const std::vector<std::string>& data_paths) {
  std::string out;
  out.append(kIndexMagic, sizeof kIndexMagic);
  const std::uint32_t version = kIndexVersion;
  const auto count = static_cast<std::uint32_t>(data_paths.size());
  out.append(reinterpret_cast<const char*>(&version), 4);
  out.append(reinterpret_cast<const char*>(&count), 4);
  for (const auto& path : data_paths) {
    const auto len = static_cast<std::uint16_t>(path.size());
    out.append(reinterpret_cast<const char*>(&len), 2);
    out.append(path);
  }
  return out;
}

Result<IndexDropping> decode_index_dropping(const std::string& bytes) {
  if (bytes.size() < sizeof kIndexMagic + 8) return Errno{EINVAL};
  if (std::memcmp(bytes.data(), kIndexMagic, sizeof kIndexMagic) != 0) {
    return Errno{EINVAL};
  }
  std::size_t pos = sizeof kIndexMagic;
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  std::memcpy(&version, bytes.data() + pos, 4);
  pos += 4;
  std::memcpy(&count, bytes.data() + pos, 4);
  pos += 4;
  if (version != kIndexVersion) return Errno{EINVAL};

  IndexDropping out;
  out.data_paths.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 2 > bytes.size()) return Errno{EINVAL};
    std::uint16_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 2);
    pos += 2;
    if (pos + len > bytes.size()) return Errno{EINVAL};
    out.data_paths.emplace_back(bytes.data() + pos, len);
    pos += len;
  }

  const std::size_t record_bytes = bytes.size() - pos;
  const std::size_t whole = record_bytes / sizeof(IndexRecord);
  out.torn_tail_bytes = record_bytes - whole * sizeof(IndexRecord);
  out.records.resize(whole);
  if (whole > 0) {  // memcpy into an empty vector's null data() is UB
    std::memcpy(out.records.data(), bytes.data() + pos,
                whole * sizeof(IndexRecord));
  }
  for (const auto& rec : out.records) {
    if (rec.kind == static_cast<std::uint32_t>(RecordKind::kData) &&
        rec.dropping_ref >= out.data_paths.size()) {
      return Errno{EINVAL};
    }
  }
  return out;
}

Result<IndexDropping> load_index_dropping(const std::string& path) {
  auto bytes = posix::read_file(path);
  if (!bytes) return bytes.error();
  return decode_index_dropping(bytes.value());
}

}  // namespace ldplfs::plfs
