// Analysis checkpointing.
//
// The paper's conclusion: "given enough execution time and disk space, the
// out-of-core version can be deployed to essentially infer trees on datasets
// of arbitrary size". Runs of that scale need restartability. A checkpoint
// captures everything required to resume an analysis bit-exactly:
//
//   * the tree (topology + branch lengths, exact binary doubles),
//   * the model (type, frequencies, exchangeabilities, alpha, categories),
//   * optionally a named RNG state position is the *caller's* job (the
//     library's Rng is reseedable; record your seed + draw count).
//
// Ancestral vectors are deliberately NOT stored: they are a pure function of
// tree + model + data, and the engine rebuilds them lazily on first use
// (orientation starts invalid), which is cheaper than writing the multi-GB
// vector file twice and keeps checkpoints tiny.
#pragma once

#include <iosfwd>
#include <string>

#include "likelihood/engine.hpp"

namespace plfoc {

struct Checkpoint {
  /// Format version; write_checkpoint always writes the current one (3:
  /// v2's layout with the lane-parallel checksum64 trailer; v2 added the
  /// trailer to v1) and read_checkpoint accepts only it.
  std::uint32_t version = 3;
  SubstitutionModel model;
  unsigned categories = 4;
  double alpha = 1.0;
  /// Taxon names in tip-id order plus topology and exact branch lengths.
  std::vector<std::string> taxon_names;
  /// Edges as (a, b, length) with a < b; doubles bit-exact.
  struct Edge {
    NodeId a;
    NodeId b;
    double length;
  };
  std::vector<Edge> edges;
};

/// Capture the engine's resumable state.
Checkpoint make_checkpoint(const LikelihoodEngine& engine);

/// Serialise / parse the binary checkpoint format (magic, version, LE
/// fields, then a checksum64 trailer over every preceding byte). Parsing
/// consumes the whole stream and rejects a truncated or corrupted one.
void write_checkpoint(std::ostream& out, const Checkpoint& checkpoint);
Checkpoint read_checkpoint(std::istream& in);

/// Crash-safe save: writes `path`.tmp, fsyncs it, then renames it over
/// `path`, so an interrupted save leaves the previous checkpoint loadable.
void save_checkpoint_file(const std::string& path,
                          const LikelihoodEngine& engine);

/// Rebuild the tree recorded in the checkpoint (validated).
Tree restore_tree(const Checkpoint& checkpoint);

/// Restore model parameters into an engine whose alignment/tree match the
/// checkpoint (tree topology must have been restored first; throws on
/// mismatched taxa or data type).
void restore_model(const Checkpoint& checkpoint, LikelihoodEngine& engine);

Checkpoint load_checkpoint_file(const std::string& path);

}  // namespace plfoc
