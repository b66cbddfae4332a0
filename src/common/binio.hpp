// Little-endian binary buffer helpers shared by the snapshot subsystem
// (sim/snapshot.hpp), the write-ahead journal (sim/journal.hpp) and the
// per-component save_state/restore_state hooks. Doubles travel as their
// IEEE-754 bit pattern, so every value round-trips bit-exactly — the
// foundation of the restore-determinism contract.
//
// BinWriter appends to a caller-owned std::string; BinReader is a
// bounds-checked cursor over a byte view. Neither touches a stream:
// bytes cross to or from std::iostream through read_all() and write_all()
// below, at the public API edge (save_snapshot / restore_snapshot, the
// Scheduler / LoadController hooks, the journal reader).
//
// BinReader fails loudly: reading past the end of the view throws
// ContractViolation. Nothing here knows about sections, checksums or
// versions — that framing lives in sim/snapshot.{hpp,cpp}. The field-list
// helpers below serialize a struct from its one declared list of members.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/expect.hpp"

namespace mlfs::io {

// Integers are copied to and from the wire in native byte order, which is
// the little-endian format only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "binio assumes a little-endian host");

class BinWriter {
 public:
  explicit BinWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u64(s.size());
    out_.append(s);
  }

  void bytes(const char* data, std::size_t n) { out_.append(data, n); }

  template <typename T, typename WriteOne>
  void vec(const std::vector<T>& v, WriteOne&& write_one) {
    u64(v.size());
    for (const T& x : v) write_one(x);
  }

  void vec_f64(const std::vector<double>& v) {
    vec(v, [this](double x) { f64(x); });
  }

  void vec_u64(const std::vector<std::uint64_t>& v) {
    vec(v, [this](std::uint64_t x) { u64(x); });
  }

  /// Bytes in the underlying buffer (its current end offset).
  std::size_t size() const { return out_.size(); }

  /// Overwrites bytes already written at `at` — back-patching a length
  /// field once the payload it frames is known.
  void patch_u32(std::size_t at, std::uint32_t v) { patch_le(at, v); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch_le(at, v); }

 private:
  template <typename T>
  void put_le(T v) {
    char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    out_.append(b, sizeof(T));
  }

  template <typename T>
  void patch_le(std::size_t at, T v) {
    MLFS_EXPECT(at <= out_.size() && out_.size() - at >= sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  std::string& out_;
};

class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}
  /// A reader over a temporary would dangle.
  explicit BinReader(std::string&&) = delete;

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = u64();
    check_length(n);
    return std::string(view(n));
  }

  /// The next `n` raw bytes, without copying.
  std::string_view view(std::uint64_t n) {
    need(n);
    const std::string_view out = bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  template <typename T, typename ReadOne>
  std::vector<T> vec(ReadOne&& read_one) {
    const std::uint64_t n = u64();
    check_length(n);
    std::vector<T> v;
    // Every element takes at least one byte, so the remaining bytes bound
    // what a well-formed length can ask for.
    v.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, remaining())));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_one());
    return v;
  }

  std::vector<double> vec_f64() {
    return vec<double>([this] { return f64(); });
  }

  std::vector<std::uint64_t> vec_u64() {
    return vec<std::uint64_t>([this] { return u64(); });
  }

  /// Offset of the next byte within the view.
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  [[noreturn]] static void underrun() {
    throw ContractViolation("binary read past end of stream");
  }
  static void check_length(std::uint64_t n) {
    // A corrupt length field must not drive a multi-gigabyte allocation;
    // no serialized container in this codebase comes close to this bound.
    if (n > (1ull << 32)) {
      throw ContractViolation("binary length field implausibly large: " + std::to_string(n));
    }
  }
  void need(std::uint64_t n) const {
    if (n > remaining()) underrun();
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Reads a u8-encoded enum whose values run from 0 to `enum_last(E{})`, a
/// constexpr function declared beside each persisted enum and found by
/// argument-dependent lookup (an enum without one does not compile here);
/// any other byte throws ContractViolation.
template <typename E>
E read_enum(BinReader& r) {
  static_assert(std::is_enum_v<E>);
  constexpr auto last = static_cast<std::uint8_t>(enum_last(E{}));
  const std::uint8_t v = r.u8();
  if (v > last) {
    throw ContractViolation("enum byte " + std::to_string(v) + " out of range");
  }
  return static_cast<E>(v);
}

// ------------------------------------------------------------ field lists
//
// A struct persisted value by value declares its members once, in wire
// order: `static constexpr auto fields()` returns a tuple of member
// pointers (e.g. sim/engine_state.hpp). write_fields / read_fields and
// write_columns / read_columns walk that one list for save and restore,
// and `static_assert(io::lists_every_field<T>)` beside the struct
// (aggregate arity == list length) fails the build when a member is left
// out. Wire types: bool → boolean, enum → u8 (range-checked on read by
// read_enum), floating → f64, signed →
// i64, unsigned → u64, a listed struct → its own fields, a vector → u64
// count then each element.

template <typename T>
concept FieldListed = requires { std::tuple_size<decltype(T::fields())>::value; };

template <FieldListed T>
void write_fields(BinWriter& w, const T& obj);
template <FieldListed T>
void read_fields(BinReader& r, T& obj);

namespace detail {

/// Converts to any type: counts the initializers an aggregate accepts.
struct AnyValue {
  template <typename V>
  operator V() const;
};

template <typename T, std::size_t N = 0>
constexpr std::size_t aggregate_arity() {
  constexpr bool takes_more = []<std::size_t... I>(std::index_sequence<I...>) {
    return requires { T{(static_cast<void>(I), AnyValue{})...}; };
  }(std::make_index_sequence<N + 1>{});
  if constexpr (takes_more) return aggregate_arity<T, N + 1>();
  return N;
}

template <typename V>
inline constexpr bool is_vector = false;
template <typename E>
inline constexpr bool is_vector<std::vector<E>> = true;

/// Calls f(member pointer) for fields [First, Last) of T's list, in order.
template <typename T, std::size_t First, std::size_t Last, typename F>
void for_fields(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::get<First + I>(T::fields())), ...);
  }(std::make_index_sequence<Last - First>{});
}

template <typename V>
void write_value(BinWriter& w, const V& v) {
  if constexpr (FieldListed<V>) write_fields(w, v);
  else if constexpr (is_vector<V>) w.vec(v, [&w](const auto& e) { write_value(w, e); });
  else if constexpr (std::is_same_v<V, bool>) w.boolean(v);
  else if constexpr (std::is_enum_v<V>) w.u8(static_cast<std::uint8_t>(v));
  else if constexpr (std::is_floating_point_v<V>) w.f64(v);
  else if constexpr (std::is_signed_v<V>) w.i64(v);
  else w.u64(v);
}

template <typename V>
void read_value(BinReader& r, V& v) {
  if constexpr (FieldListed<V>) read_fields(r, v);
  else if constexpr (is_vector<V>) v = r.vec<typename V::value_type>([&r] {
    typename V::value_type e;
    read_value(r, e);
    return e;
  });
  else if constexpr (std::is_same_v<V, bool>) v = r.boolean();
  else if constexpr (std::is_enum_v<V>) v = read_enum<V>(r);
  else if constexpr (std::is_floating_point_v<V>) v = r.f64();
  else if constexpr (std::is_signed_v<V>) v = static_cast<V>(r.i64());
  else v = static_cast<V>(r.u64());
}

}  // namespace detail

template <FieldListed T>
inline constexpr std::size_t field_count = std::tuple_size_v<decltype(T::fields())>;

/// True iff T's field list names every member of the aggregate T.
template <FieldListed T>
inline constexpr bool lists_every_field =
    std::is_aggregate_v<T> && detail::aggregate_arity<T>() == field_count<T>;

template <FieldListed T>
void write_fields(BinWriter& w, const T& obj) {
  detail::for_fields<T, 0, field_count<T>>([&](auto f) { detail::write_value(w, obj.*f); });
}

template <FieldListed T>
void read_fields(BinReader& r, T& obj) {
  detail::for_fields<T, 0, field_count<T>>([&](auto f) { detail::read_value(r, obj.*f); });
}

/// Fields [First, Last) of T's list as columns over `rows`: per field, the
/// row count, then that field of every row.
template <std::size_t First, std::size_t Last, FieldListed T>
void write_columns(BinWriter& w, const std::vector<T>& rows) {
  detail::for_fields<T, First, Last>([&](auto f) {
    w.u64(rows.size());
    for (const T& row : rows) detail::write_value(w, row.*f);
  });
}

/// Reads what write_columns<First, Last> wrote into `rows`, which must
/// already hold the expected number of rows: a column of any other length
/// throws ContractViolation.
template <std::size_t First, std::size_t Last, FieldListed T>
void read_columns(BinReader& r, std::vector<T>& rows) {
  detail::for_fields<T, First, Last>([&](auto f) {
    const std::uint64_t n = r.u64();
    if (n != rows.size()) {
      throw ContractViolation("a column holds " + std::to_string(n) + " values for " +
                              std::to_string(rows.size()) + " rows");
    }
    for (T& row : rows) detail::read_value(r, row.*f);
  });
}

/// Everything left in `is`, read chunk by chunk straight from its stream
/// buffer, so the stream's state flags are left as they were.
inline std::string read_all(std::istream& is) {
  std::string out;
  std::streambuf* buf = is.rdbuf();
  if (buf == nullptr) return out;
  char chunk[1 << 14];
  for (std::streamsize got; (got = buf->sgetn(chunk, sizeof(chunk))) > 0;) {
    out.append(chunk, static_cast<std::size_t>(got));
  }
  return out;
}

/// Writes `bytes` to `os` in one call and returns how many the stream
/// accepted. A short write sets badbit, as ostream::write does.
inline std::size_t write_all(std::ostream& os, std::string_view bytes) {
  const std::ostream::sentry ok(os);
  if (!ok) return 0;
  const std::streamsize n = bytes.empty()
                                ? 0
                                : os.rdbuf()->sputn(bytes.data(),
                                                    static_cast<std::streamsize>(bytes.size()));
  if (n != static_cast<std::streamsize>(bytes.size())) os.setstate(std::ios::badbit);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

}  // namespace mlfs::io
