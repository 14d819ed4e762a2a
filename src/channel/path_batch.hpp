// Structure-of-arrays containers for batched path queries.
//
// The scalar API answers one endpoint pair at a time and returns a fresh
// std::vector<Path> — fine for a handful of queries, hostile to a coverage
// grid or a codebook sweep that asks thousands of questions per pose update.
// These containers keep every field of every query/path in its own
// contiguous array, recycled across calls, so a warmed batch round-trips
// with zero heap allocations: clear() keeps capacity.
//
// Layout contract (documented in DESIGN.md §11):
//  - EndpointBatch: query i is (a(i), b(i)); ax/ay/bx/by are parallel arrays.
//  - PathBatch: paths of query q occupy the index range
//    [query_begin[q], query_begin[q + 1]); path p's bounce vertices occupy
//    [vertex_begin[p], vertex_begin[p + 1]) in `vertices`. Within a query,
//    paths are ordered strongest-first — exactly the order PathSolver::solve
//    returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include <channel/path.hpp>
#include <geom/vec2.hpp>
#include <rf/units.hpp>

namespace movr::channel {

/// A flat batch of (source, destination) endpoint pairs.
class EndpointBatch {
 public:
  void clear() {
    ax_.clear();
    ay_.clear();
    bx_.clear();
    by_.clear();
  }

  void reserve(std::size_t n) {
    ax_.reserve(n);
    ay_.reserve(n);
    bx_.reserve(n);
    by_.reserve(n);
  }

  void push(geom::Vec2 a, geom::Vec2 b) {
    ax_.push_back(a.x);
    ay_.push_back(a.y);
    bx_.push_back(b.x);
    by_.push_back(b.y);
  }

  std::size_t size() const { return ax_.size(); }
  bool empty() const { return ax_.empty(); }

  geom::Vec2 a(std::size_t i) const { return {ax_[i], ay_[i]}; }
  geom::Vec2 b(std::size_t i) const { return {bx_[i], by_[i]}; }

  /// Bytes of backing storage currently owned (capacity, not size).
  std::size_t arena_bytes() const {
    return (ax_.capacity() + ay_.capacity() + bx_.capacity() +
            by_.capacity()) *
           sizeof(double);
  }

 private:
  std::vector<double> ax_, ay_, bx_, by_;
};

/// SoA results of a batched solve: one entry per surviving path, grouped by
/// query. Appended to by PathSolver::solve_batch; clear() keeps capacity.
class PathBatch {
 public:
  void clear() {
    query_begin_.clear();
    query_begin_.push_back(0);
    departure_azimuth_.clear();
    arrival_azimuth_.clear();
    length_m_.clear();
    loss_db_.clear();
    obstruction_db_.clear();
    bounces_.clear();
    vertex_begin_.clear();
    vertex_begin_.push_back(0);
    vertices_.clear();
  }

  PathBatch() { clear(); }

  std::size_t queries() const { return query_begin_.size() - 1; }
  std::size_t paths() const { return loss_db_.size(); }

  /// Index range [first, last) of query q's paths, strongest first.
  std::size_t query_first(std::size_t q) const { return query_begin_[q]; }
  std::size_t query_last(std::size_t q) const { return query_begin_[q + 1]; }
  std::size_t query_paths(std::size_t q) const {
    return query_begin_[q + 1] - query_begin_[q];
  }

  double departure_azimuth(std::size_t p) const {
    return departure_azimuth_[p];
  }
  double arrival_azimuth(std::size_t p) const { return arrival_azimuth_[p]; }
  double length_m(std::size_t p) const { return length_m_[p]; }
  double loss_db(std::size_t p) const { return loss_db_[p]; }
  double obstruction_db(std::size_t p) const { return obstruction_db_[p]; }
  int bounces(std::size_t p) const { return bounces_[p]; }

  std::size_t vertex_count(std::size_t p) const {
    return vertex_begin_[p + 1] - vertex_begin_[p];
  }
  geom::Vec2 vertex(std::size_t p, std::size_t k) const {
    return vertices_[vertex_begin_[p] + k];
  }

  /// Reconstructs the AoS Path for path index p — the bridge back to the
  /// scalar world (cache fills, tests). Field-for-field identical to what
  /// PathSolver::solve would have produced.
  Path path(std::size_t p) const {
    Path out;
    out.departure_azimuth = departure_azimuth_[p];
    out.arrival_azimuth = arrival_azimuth_[p];
    out.length_m = length_m_[p];
    out.loss = rf::Decibels{loss_db_[p]};
    out.bounces = bounces_[p];
    out.obstruction = rf::Decibels{obstruction_db_[p]};
    out.vertices.assign(vertices_.begin() + static_cast<std::ptrdiff_t>(
                                                vertex_begin_[p]),
                        vertices_.begin() + static_cast<std::ptrdiff_t>(
                                                vertex_begin_[p + 1]));
    return out;
  }

  // Appending interface, used by the solver.
  void begin_query() {}
  void end_query() { query_begin_.push_back(paths()); }
  void append_path(double departure, double arrival, double length,
                   double loss_db, double obstruction_db, int bounces,
                   const geom::Vec2* verts, std::size_t nverts) {
    departure_azimuth_.push_back(departure);
    arrival_azimuth_.push_back(arrival);
    length_m_.push_back(length);
    loss_db_.push_back(loss_db);
    obstruction_db_.push_back(obstruction_db);
    bounces_.push_back(bounces);
    vertices_.insert(vertices_.end(), verts, verts + nverts);
    vertex_begin_.push_back(vertices_.size());
  }

  /// Bytes of backing storage currently owned (capacity, not size).
  std::size_t arena_bytes() const {
    return (query_begin_.capacity() + vertex_begin_.capacity()) *
               sizeof(std::size_t) +
           (departure_azimuth_.capacity() + arrival_azimuth_.capacity() +
            length_m_.capacity() + loss_db_.capacity() +
            obstruction_db_.capacity()) *
               sizeof(double) +
           bounces_.capacity() * sizeof(int) +
           vertices_.capacity() * sizeof(geom::Vec2);
  }

  void reserve(std::size_t nqueries, std::size_t paths_per_query) {
    const std::size_t npaths = nqueries * paths_per_query;
    query_begin_.reserve(nqueries + 1);
    departure_azimuth_.reserve(npaths);
    arrival_azimuth_.reserve(npaths);
    length_m_.reserve(npaths);
    loss_db_.reserve(npaths);
    obstruction_db_.reserve(npaths);
    bounces_.reserve(npaths);
    vertex_begin_.reserve(npaths + 1);
    vertices_.reserve(npaths * 4);
  }

 private:
  std::vector<std::size_t> query_begin_;
  std::vector<double> departure_azimuth_;
  std::vector<double> arrival_azimuth_;
  std::vector<double> length_m_;
  std::vector<double> loss_db_;
  std::vector<double> obstruction_db_;
  std::vector<int> bounces_;
  std::vector<std::size_t> vertex_begin_;
  std::vector<geom::Vec2> vertices_;
};

}  // namespace movr::channel
