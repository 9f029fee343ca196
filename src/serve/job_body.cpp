#include "serve/job_body.hpp"

#include <stdexcept>
#include <string>

namespace spi::serve {

using obs::json::Type;

void JobBody::read(std::string_view text) {
  members_.clear();
  numbers_.clear();
  obs::json::Reader reader(text);
  reader.begin_object();
  for (;;) {
    Member member;
    const std::size_t before_key = reader.offset();
    if (!reader.next_member(member.key)) break;
    if (members_.size() == kMaxMembers)
      obs::json::fail_at(text.find('"', before_key),
                         "a job has at most " + std::to_string(kMaxMembers) + " members");
    if (find(member.key) != nullptr)
      obs::json::fail_at(text.find('"', before_key),
                         "duplicate key \"" + obs::json::escaped(member.key) + "\"");
    try {
      read_value(reader, member);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("job \"" + member.key + "\": " + e.what());
    }
    members_.push_back(std::move(member));
  }
  reader.finish();
}

void JobBody::read_value(obs::json::Reader& reader, Member& member) {
  member.type = reader.peek();
  switch (member.type) {
    case Type::kString:
      if (const auto plain = reader.plain_string()) {
        member.text = *plain;
        member.usable = true;
      }
      return;
    case Type::kNumber:
      if (const auto value = reader.number()) {
        member.number = *value;
        member.usable = true;
      }
      return;
    case Type::kArray:
      member.first = numbers_.size();
      member.usable = true;
      reader.begin_array();
      while (reader.next_element()) {
        if (reader.peek() != Type::kNumber) {
          reader.skip();
          member.usable = false;
        } else if (const auto value = reader.number()) {
          numbers_.push_back(*value);
        } else {
          member.usable = false;
        }
      }
      member.count = numbers_.size() - member.first;
      return;
    default:
      reader.skip();
  }
}

const JobBody::Member* JobBody::find(std::string_view key) const {
  for (const Member& member : members_)
    if (member.key == key) return &member;
  return nullptr;
}

std::optional<std::string_view> JobBody::string(std::string_view key) const {
  const Member* member = find(key);
  if (member == nullptr || member->type != Type::kString || !member->usable) return std::nullopt;
  return member->text;
}

std::optional<double> JobBody::number(std::string_view key) const {
  const Member* member = find(key);
  if (member == nullptr || member->type != Type::kNumber || !member->usable) return std::nullopt;
  return member->number;
}

std::optional<std::span<const double>> JobBody::array(std::string_view key) const {
  const Member* member = find(key);
  if (member == nullptr || member->type != Type::kArray || !member->usable) return std::nullopt;
  return std::span<const double>(numbers_).subspan(member->first, member->count);
}

}  // namespace spi::serve
