#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

namespace ppo::ckpt {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

void write_header(Writer& w, const Header& h) {
  w.u8(static_cast<std::uint8_t>(h.backend));
  w.u32(h.shards_hint);
  w.u64(h.graph_fingerprint);
  w.u64(h.config_hash);
  w.u64(h.seed);
  w.f64(h.sim_time);
}

Header read_header(Reader& r) {
  Header h;
  h.backend = static_cast<BackendKind>(r.u8());
  h.shards_hint = r.u32();
  h.graph_fingerprint = r.u64();
  h.config_hash = r.u64();
  h.seed = r.u64();
  h.sim_time = r.f64();
  return h;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  // Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320),
  // sliced by 8: t[k] advances a byte through k more zero bytes, so the
  // main loop folds eight bytes per step. Tables built once on first
  // use — no external dependency.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
      }
    return tables;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = c ^ (p[0] | p[1] << 8 | p[2] << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; --size, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kIoError: return "io_error";
    case Status::kTruncated: return "truncated";
    case Status::kBadMagic: return "bad_magic";
    case Status::kBadVersion: return "bad_version";
    case Status::kBadCrc: return "bad_crc";
    case Status::kGraphMismatch: return "graph_mismatch";
    case Status::kConfigMismatch: return "config_mismatch";
    case Status::kUnsupported: return "unsupported";
  }
  return "unknown";
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = kFnvOffset ^ seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fingerprint_graph(const graph::GraphView& g) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, g.num_nodes());
  h = fnv_mix(h, g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    h = fnv_mix(h, v);
    for (const graph::NodeId u : g.neighbors(v)) h = fnv_mix(h, u);
  }
  return h;
}

bool save_file(const std::string& path, const Header& header,
               std::string_view payload, std::string* error) {
  Writer body;
  write_header(body, header);
  const std::string& head = body.buffer();

  Writer file;
  file.u32(kMagic);
  file.u32(kVersion);
  std::uint32_t crc = crc32(head.data(), head.size());
  crc = crc32(payload.data(), payload.size(), crc);
  file.u32(crc);
  file.u64(head.size() + payload.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    out.write(file.buffer().data(),
              static_cast<std::streamsize>(file.buffer().size()));
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) {
      if (error) *error = "short write to " + tmp;
      std::remove(tmp.c_str());
      return false;
    }
  }
  // fsync before rename: the rename must never expose a file whose
  // bytes are still in flight.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error)
      *error = "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

LoadResult load_file(const std::string& path) {
  LoadResult res;
  const auto fail = [&res](Status status, std::string message) {
    res.status = status;
    res.message = std::move(message);
    return res;
  };
  // One pre-sized read of the whole file; the payload is later cut out
  // of this same buffer. file_size also fails on directories.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return fail(Status::kIoError, "cannot open " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));  // a file that shrank
  if (in.bad()) return fail(Status::kIoError, "read error on " + path);
  try {
    Reader r(bytes);
    if (r.remaining() < 20)
      return fail(Status::kTruncated,
                  path + ": shorter than the fixed preamble");
    if (r.u32() != kMagic)
      return fail(Status::kBadMagic, path + ": not a checkpoint file");
    const std::uint32_t version = r.u32();
    if (version != kVersion)
      return fail(Status::kBadVersion,
                  path + ": format version " + std::to_string(version) +
                      ", this build speaks " + std::to_string(kVersion));
    const std::uint32_t want_crc = r.u32();
    const std::uint64_t declared = r.u64();
    if (declared > r.remaining())
      return fail(Status::kTruncated,
                  path + ": declares " + std::to_string(declared) +
                      " bytes, " + std::to_string(r.remaining()) + " present");
    // The CRC runs over the sealed span in place, in the read buffer.
    const std::size_t offset = bytes.size() - r.remaining();
    if (crc32(bytes.data() + offset, static_cast<std::size_t>(declared)) !=
        want_crc)
      return fail(Status::kBadCrc, path + ": checksum mismatch (file corrupt)");
    res.header = read_header(r);
    const std::size_t header_bytes = bytes.size() - r.remaining() - offset;
    if (declared < header_bytes)
      return fail(Status::kTruncated,
                  path + ": declared size smaller than the header");
    // Only the CRC-sealed span belongs to the payload — bytes past the
    // declared size (e.g. junk appended after the fact) are excluded,
    // and the payload parser's final done() check stays meaningful.
    bytes.resize(offset + static_cast<std::size_t>(declared));
    bytes.erase(0, offset + header_bytes);
    res.payload = std::move(bytes);
    res.status = Status::kOk;
  } catch (const ParseError& e) {
    return fail(Status::kTruncated, path + ": " + e.what());
  }
  return res;
}

Status check_compat(const Header& header, BackendKind backend,
                    std::uint64_t graph_fingerprint,
                    std::uint64_t config_hash) {
  if (header.graph_fingerprint != graph_fingerprint)
    return Status::kGraphMismatch;
  if (header.config_hash != config_hash) return Status::kConfigMismatch;
  if (header.backend != backend) return Status::kUnsupported;
  return Status::kOk;
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 10 && name.rfind("ckpt-", 0) == 0 &&
        name.substr(name.size() - 5) == ".ppoc")
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt-%08llu.ppoc",
                static_cast<unsigned long long>(index));
  return dir + "/" + name;
}

}  // namespace ppo::ckpt
