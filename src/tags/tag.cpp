#include "tags/tag.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>

namespace hdsm::tags {

bool TagItem::operator==(const TagItem& other) const {
  return kind == other.kind && size == other.size && count == other.count &&
         children == other.children;
}

namespace {

void append_number(std::string& out, std::uint64_t v) {
  char buf[20];  // UINT64_MAX has 20 decimal digits
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_item(std::string& out, const TagItem& it) {
  out += '(';
  switch (it.kind) {
    case TagItem::Kind::Scalar:
    case TagItem::Kind::Pointer:
      append_number(out, it.size);
      out += it.kind == TagItem::Kind::Pointer ? ",-" : ",";
      append_number(out, it.count);
      break;
    case TagItem::Kind::Padding:
      append_number(out, it.size);
      out += ",0";
      break;
    case TagItem::Kind::Aggregate:
      for (const TagItem& c : it.children) append_item(out, c);
      out += ',';
      append_number(out, it.count);
      break;
  }
  out += ')';
}

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  std::vector<TagItem> parse_sequence(bool top_level) {
    std::vector<TagItem> items;
    while (pos_ < s_.size() && s_[pos_] == '(') {
      items.push_back(parse_item());
    }
    if (top_level && pos_ != s_.size()) {
      fail("trailing characters");
    }
    return items;
  }

 private:
  [[noreturn]] void fail(const char* why) const {
    throw std::invalid_argument(std::string("Tag::parse: ") + why +
                                " at offset " + std::to_string(pos_));
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  std::uint64_t parse_number() {
    std::uint64_t v = 0;
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    auto [p, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc() || p == begin) fail("expected number");
    pos_ += static_cast<std::size_t>(p - begin);
    return v;
  }

  TagItem parse_item() {
    expect('(');
    TagItem it;
    if (peek() == '(') {
      // Aggregate: nested sequence, then ",n)".
      it.kind = TagItem::Kind::Aggregate;
      it.children = parse_sequence(/*top_level=*/false);
      expect(',');
      it.count = parse_number();
      expect(')');
      return it;
    }
    it.size = parse_number();
    expect(',');
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    const std::uint64_t n = parse_number();
    expect(')');
    if (negative) {
      if (n == 0) fail("pointer count must be nonzero");
      it.kind = TagItem::Kind::Pointer;
      it.count = n;
    } else if (n == 0) {
      it.kind = TagItem::Kind::Padding;
      it.count = 0;
    } else {
      it.kind = TagItem::Kind::Scalar;
      it.count = n;
    }
    return it;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::uint64_t item_bytes(const TagItem& it) {
  switch (it.kind) {
    case TagItem::Kind::Scalar:
    case TagItem::Kind::Pointer:
      return it.size * it.count;
    case TagItem::Kind::Padding:
      return it.size;
    case TagItem::Kind::Aggregate: {
      std::uint64_t per = 0;
      for (const TagItem& c : it.children) per += item_bytes(c);
      return per * it.count;
    }
  }
  return 0;
}

}  // namespace

std::string Tag::to_string() const {
  std::string out;
  for (const TagItem& it : items_) append_item(out, it);
  return out;
}

Tag Tag::parse(std::string_view text) {
  Parser p(text);
  return Tag(p.parse_sequence(/*top_level=*/true));
}

std::uint64_t Tag::described_bytes() const {
  std::uint64_t total = 0;
  for (const TagItem& it : items_) total += item_bytes(it);
  return total;
}

namespace {

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}

// Emit the item(s) describing one field (no trailing padding tuple).
void emit_field(std::vector<TagItem>& out, const TypeDesc& t,
                const plat::PlatformDesc& p);

std::vector<TagItem> struct_items(const TypeDesc& t,
                                  const plat::PlatformDesc& p) {
  std::vector<TagItem> out;
  std::uint64_t cursor = 0;
  const std::uint64_t total = size_of(t, p);
  const std::size_t nfields = t.fields().size();
  for (std::size_t i = 0; i < nfields; ++i) {
    const Field& f = t.fields()[i];
    const std::uint64_t aligned = round_up(cursor, align_of(*f.type, p));
    // Padding *before* a field folds into the preceding field's padding
    // tuple; the first field of a struct is always at offset 0.
    emit_field(out, *f.type, p);
    cursor = aligned + size_of(*f.type, p);
    std::uint64_t next =
        (i + 1 < nfields)
            ? round_up(cursor, align_of(*t.fields()[i + 1].type, p))
            : total;
    TagItem padt;
    padt.kind = TagItem::Kind::Padding;
    padt.size = next - cursor;
    padt.count = 0;
    out.push_back(padt);
    cursor = next;
  }
  return out;
}

void emit_field(std::vector<TagItem>& out, const TypeDesc& t,
                const plat::PlatformDesc& p) {
  switch (t.kind()) {
    case TypeDesc::Kind::Scalar: {
      TagItem it;
      it.kind = TagItem::Kind::Scalar;
      it.size = p.size_of(t.scalar_kind());
      it.count = 1;
      out.push_back(it);
      return;
    }
    case TypeDesc::Kind::Pointer: {
      TagItem it;
      it.kind = TagItem::Kind::Pointer;
      it.size = p.size_of(plat::ScalarKind::Pointer);
      it.count = 1;
      out.push_back(it);
      return;
    }
    case TypeDesc::Kind::Reserved: {
      TagItem it;
      it.kind = TagItem::Kind::Padding;
      it.size = t.reserved_bytes();
      it.count = 0;
      out.push_back(it);
      return;
    }
    case TypeDesc::Kind::Array: {
      const TypeDesc& e = *t.element();
      if (e.kind() == TypeDesc::Kind::Scalar) {
        TagItem it;
        it.kind = TagItem::Kind::Scalar;
        it.size = p.size_of(e.scalar_kind());
        it.count = t.count();
        out.push_back(it);
        return;
      }
      if (e.kind() == TypeDesc::Kind::Pointer) {
        TagItem it;
        it.kind = TagItem::Kind::Pointer;
        it.size = p.size_of(plat::ScalarKind::Pointer);
        it.count = t.count();
        out.push_back(it);
        return;
      }
      TagItem it;
      it.kind = TagItem::Kind::Aggregate;
      it.count = t.count();
      if (e.kind() == TypeDesc::Kind::Struct) {
        it.children = struct_items(e, p);
      } else {
        emit_field(it.children, e, p);
      }
      out.push_back(it);
      return;
    }
    case TypeDesc::Kind::Struct: {
      TagItem it;
      it.kind = TagItem::Kind::Aggregate;
      it.count = 1;
      it.children = struct_items(t, p);
      out.push_back(it);
      return;
    }
  }
}

TagItem run_item(std::uint32_t elem_size, std::uint64_t count,
                 bool is_pointer) {
  TagItem it;
  it.kind = is_pointer ? TagItem::Kind::Pointer : TagItem::Kind::Scalar;
  it.size = elem_size;
  it.count = count;
  return it;
}

}  // namespace

Tag make_tag(const TypeDesc& t, const plat::PlatformDesc& p) {
  if (t.kind() == TypeDesc::Kind::Struct) {
    // Top-level GThV/MThV structures print their members inline (Figure 3),
    // not wrapped in an extra aggregate.
    return Tag(struct_items(t, p));
  }
  std::vector<TagItem> items;
  emit_field(items, t, p);
  return Tag(std::move(items));
}

Tag make_run_tag(std::uint32_t elem_size, std::uint64_t count,
                 bool is_pointer) {
  return Tag({run_item(elem_size, count, is_pointer)});
}

void append_run_tag(std::string& out, std::uint32_t elem_size,
                    std::uint64_t count, bool is_pointer,
                    std::uint32_t stride) {
  if (stride <= 1) {
    append_item(out, run_item(elem_size, count, is_pointer));
    return;
  }
  out += '(';
  append_item(out, run_item(elem_size, 1, is_pointer));
  out += '(';
  append_number(out, std::uint64_t{stride - 1} * elem_size);
  out += ",0),";
  append_number(out, count);
  out += ')';
}

}  // namespace hdsm::tags
