#include "node/element_index.h"

namespace xtc {

std::string ElementIndex::MakeKey(NameSurrogate name, const Splid& splid) {
  std::string key;
  key.reserve(4 + 16);
  // Big-endian surrogate so the tree clusters by name.
  key.push_back(static_cast<char>((name >> 24) & 0xFF));
  key.push_back(static_cast<char>((name >> 16) & 0xFF));
  key.push_back(static_cast<char>((name >> 8) & 0xFF));
  key.push_back(static_cast<char>(name & 0xFF));
  key += splid.Encode();
  return key;
}

Status ElementIndex::Add(NameSurrogate name, const Splid& splid) {
  return tree_.Insert(MakeKey(name, splid), "");
}

Status ElementIndex::Remove(NameSurrogate name, const Splid& splid) {
  return tree_.Delete(MakeKey(name, splid));
}

bool ElementIndex::Contains(NameSurrogate name, const Splid& splid) const {
  return tree_.Contains(MakeKey(name, splid));
}

std::vector<Splid> ElementIndex::List(NameSurrogate name) const {
  std::vector<Splid> out;
  std::string prefix = MakeKey(name, Splid::Root());
  prefix.resize(4);  // surrogate bytes only
  auto it = tree_.NewIterator();
  for (it.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, 4, prefix) != 0) break;
    auto s = Splid::Decode(std::string_view(it.key()).substr(4));
    if (s.has_value()) out.push_back(*s);
  }
  return out;
}

std::optional<Splid> ElementIndex::Nth(NameSurrogate name, size_t index) const {
  std::string prefix = MakeKey(name, Splid::Root());
  prefix.resize(4);
  auto it = tree_.NewIterator();
  size_t i = 0;
  for (it.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, 4, prefix) != 0) break;
    if (i == index) {
      return Splid::Decode(std::string_view(it.key()).substr(4));
    }
    ++i;
  }
  return std::nullopt;
}

}  // namespace xtc
