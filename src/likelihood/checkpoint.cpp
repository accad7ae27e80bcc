#include "likelihood/checkpoint.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "util/checks.hpp"
#include "util/checksum.hpp"

namespace plfoc {
namespace {

constexpr char kMagic[4] = {'P', 'L', 'F', 'C'};
constexpr std::uint32_t kVersion = 3;
constexpr std::size_t kTrailerBytes = 8;
constexpr std::uint64_t kTrailerSeed = 0x504c4643ull;  // "PLFC"

std::uint64_t trailer_checksum(const std::string& body) {
  return checksum64(kTrailerSeed, body.data(), body.size());
}

// Little-endian primitive serialisation; doubles round-trip bit-exactly.
void put_u32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i)
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  out.write(bytes, 4);
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{bytes[i]} << (8 * i);
  return value;
}

void put_double(std::ostream& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, 8);
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  out.write(bytes, 8);
}

double get_double(std::istream& in) {
  unsigned char bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= std::uint64_t{bytes[i]} << (8 * i);
  double value = 0.0;
  std::memcpy(&value, &bits, 8);
  return value;
}

void put_string(std::ostream& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string get_string(std::istream& in) {
  const std::uint32_t size = get_u32(in);
  PLFOC_REQUIRE(size <= (1u << 20), "checkpoint: implausible string length");
  std::string value(size, '\0');
  in.read(value.data(), size);
  PLFOC_REQUIRE(in.good(), "checkpoint: truncated file");
  return value;
}

}  // namespace

Checkpoint make_checkpoint(const LikelihoodEngine& engine) {
  Checkpoint checkpoint;
  checkpoint.model = engine.config().substitution;
  checkpoint.categories = engine.config().categories;
  checkpoint.alpha = engine.config().alpha;
  const Tree& tree = engine.tree();
  checkpoint.taxon_names.reserve(tree.num_taxa());
  for (NodeId tip = 0; tip < tree.num_taxa(); ++tip)
    checkpoint.taxon_names.push_back(tree.taxon_name(tip));
  for (const auto& [a, b] : tree.edges())
    checkpoint.edges.push_back({a, b, tree.branch_length(a, b)});
  return checkpoint;
}

void write_checkpoint(std::ostream& stream, const Checkpoint& checkpoint) {
  std::ostringstream out;
  out.write(kMagic, 4);
  put_u32(out, kVersion);
  put_u32(out, checkpoint.model.type == DataType::kDna ? 0u : 1u);
  put_string(out, checkpoint.model.name);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.model.frequencies.size()));
  for (double f : checkpoint.model.frequencies) put_double(out, f);
  put_u32(out,
          static_cast<std::uint32_t>(checkpoint.model.exchangeabilities.size()));
  for (double r : checkpoint.model.exchangeabilities) put_double(out, r);
  put_u32(out, checkpoint.categories);
  put_double(out, checkpoint.alpha);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.taxon_names.size()));
  for (const std::string& name : checkpoint.taxon_names) put_string(out, name);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.edges.size()));
  for (const Checkpoint::Edge& edge : checkpoint.edges) {
    put_u32(out, edge.a);
    put_u32(out, edge.b);
    put_double(out, edge.length);
  }
  // Trailer: checksum64 over every byte before it, little-endian.
  const std::string body = out.str();
  const std::uint64_t sum = trailer_checksum(body);
  char trailer[kTrailerBytes];
  for (std::size_t i = 0; i < kTrailerBytes; ++i)
    trailer[i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  stream.write(body.data(), static_cast<std::streamsize>(body.size()));
  stream.write(trailer, kTrailerBytes);
  PLFOC_REQUIRE(stream.good(), "checkpoint: write failed");
}

Checkpoint read_checkpoint(std::istream& stream) {
  std::string bytes{std::istreambuf_iterator<char>(stream),
                    std::istreambuf_iterator<char>()};
  PLFOC_REQUIRE(bytes.size() >= 4 && std::memcmp(bytes.data(), kMagic, 4) == 0,
                "checkpoint: bad magic (not a plfoc checkpoint)");
  PLFOC_REQUIRE(bytes.size() >= 4 + 4 + kTrailerBytes,
                "checkpoint: truncated file");
  // The version decides how the trailer is computed, so it is checked first:
  // an older checkpoint is refused as such, not as corrupted.
  std::uint32_t version = 0;
  for (std::size_t i = 0; i < 4; ++i)
    version |= std::uint32_t{static_cast<unsigned char>(bytes[4 + i])}
               << (8 * i);
  PLFOC_REQUIRE(version == kVersion,
                "checkpoint: unsupported version " + std::to_string(version));
  const std::string body = bytes.substr(0, bytes.size() - kTrailerBytes);
  std::uint64_t recorded = 0;
  for (std::size_t i = 0; i < kTrailerBytes; ++i)
    recorded |= std::uint64_t{static_cast<unsigned char>(
                    bytes[body.size() + i])}
                << (8 * i);
  PLFOC_REQUIRE(recorded == trailer_checksum(body),
                "checkpoint: checksum mismatch (truncated or corrupted file)");
  std::istringstream in(body);
  in.ignore(8);  // magic, version
  Checkpoint checkpoint;
  checkpoint.version = version;
  checkpoint.model.type = get_u32(in) == 0 ? DataType::kDna : DataType::kProtein;
  checkpoint.model.name = get_string(in);
  checkpoint.model.frequencies.resize(get_u32(in));
  for (double& f : checkpoint.model.frequencies) f = get_double(in);
  checkpoint.model.exchangeabilities.resize(get_u32(in));
  for (double& r : checkpoint.model.exchangeabilities) r = get_double(in);
  checkpoint.categories = get_u32(in);
  checkpoint.alpha = get_double(in);
  checkpoint.model.validate();
  checkpoint.taxon_names.resize(get_u32(in));
  for (std::string& name : checkpoint.taxon_names) name = get_string(in);
  checkpoint.edges.resize(get_u32(in));
  for (Checkpoint::Edge& edge : checkpoint.edges) {
    edge.a = get_u32(in);
    edge.b = get_u32(in);
    edge.length = get_double(in);
  }
  PLFOC_REQUIRE(in.peek() == std::char_traits<char>::eof(),
                "checkpoint: trailing bytes after the last edge");
  return checkpoint;
}

Tree restore_tree(const Checkpoint& checkpoint) {
  Tree tree(checkpoint.taxon_names);
  PLFOC_REQUIRE(checkpoint.edges.size() == tree.num_edges(),
                "checkpoint: edge count does not match taxon count");
  for (const Checkpoint::Edge& edge : checkpoint.edges)
    tree.connect(edge.a, edge.b, edge.length);
  tree.validate();
  return tree;
}

void restore_model(const Checkpoint& checkpoint, LikelihoodEngine& engine) {
  PLFOC_REQUIRE(engine.config().categories == checkpoint.categories,
                "checkpoint: rate-category count mismatch");
  engine.set_substitution_model(checkpoint.model);
  engine.set_alpha(checkpoint.alpha);
}

// Crash-safe replace: the new checkpoint goes to a sibling temp file, is
// fsync'd, and only then renamed over `path` (rename(2) is atomic within a
// filesystem), so a crash at any point leaves either the previous checkpoint
// or the new one — never a torn file. The directory entry is fsync'd last,
// best effort, so the rename itself survives a power cut.
void save_checkpoint_file(const std::string& path,
                          const LikelihoodEngine& engine) {
  std::ostringstream encoded;
  write_checkpoint(encoded, make_checkpoint(engine));
  const std::string bytes = encoded.str();
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  PLFOC_REQUIRE(file != nullptr, "cannot open checkpoint file '" + temp +
                                     "': " + std::strerror(errno));
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const int error = errno;
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    std::remove(temp.c_str());
    PLFOC_REQUIRE(false, "checkpoint: cannot write '" + temp +
                             "': " + std::strerror(written ? errno : error));
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const int rename_error = errno;
    std::remove(temp.c_str());
    PLFOC_REQUIRE(false, "checkpoint: cannot rename '" + temp + "' to '" +
                             path + "': " + std::strerror(rename_error));
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  if (std::FILE* handle = std::fopen(dir.c_str(), "r")) {
    ::fsync(::fileno(handle));
    std::fclose(handle);
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PLFOC_REQUIRE(in.good(), "cannot open checkpoint file '" + path + "'");
  return read_checkpoint(in);
}

}  // namespace plfoc
