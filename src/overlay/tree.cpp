#include "overlay/tree.hpp"

#include "common/assert.hpp"

namespace sel::overlay {

DisseminationTree::DisseminationTree(PeerId root) {
  order_.push_back(root);
  links_.emplace_back();
  index_.emplace(root, Pos{0});
}

void DisseminationTree::attach(Pos parent, PeerId child) {
  const auto pos = static_cast<Pos>(order_.size());
  SEL_ASSERT(pos != kNoPos);
  order_.push_back(child);
  Links node;
  node.parent = parent;
  node.depth = links_[parent].depth + 1;
  links_.push_back(node);
  index_.emplace(child, pos);
  Links& up = links_[parent];
  if (up.first_child == kNoPos) {
    up.first_child = pos;
  } else {
    links_[up.last_child].next_sibling = pos;
  }
  up.last_child = pos;
  ++up.child_count;
}

void DisseminationTree::add_path(std::span<const PeerId> path) {
  if (path.empty()) return;
  SEL_EXPECTS(path.front() == root());
  Pos via = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Pos known = position(path[i]);
    if (known != kNoPos) {
      via = known;
      continue;
    }
    // `via` is present: it is the root, a node already in the tree, or was
    // attached in the previous iteration of this same walk.
    attach(via, path[i]);
    via = static_cast<Pos>(order_.size() - 1);
  }
}

void DisseminationTree::add_child(PeerId parent, PeerId child) {
  const Pos up = position(parent);
  SEL_EXPECTS(up != kNoPos);
  if (contains(child)) return;
  attach(up, child);
}

DisseminationTree::Pos DisseminationTree::position(PeerId p) const {
  const auto it = index_.find(p);
  return it == index_.end() ? kNoPos : it->second;
}

PeerId DisseminationTree::parent(PeerId p) const {
  const Pos pos = position(p);
  if (pos == kNoPos || links_[pos].parent == kNoPos) return kInvalidPeer;
  return order_[links_[pos].parent];
}

DisseminationTree::ChildPeers DisseminationTree::children(PeerId p) const {
  const Pos pos = position(p);
  if (pos == kNoPos) return {this, kNoPos, 0};
  return {this, links_[pos].first_child, links_[pos].child_count};
}

std::size_t DisseminationTree::depth(PeerId p) const {
  const Pos pos = position(p);
  return pos == kNoPos ? static_cast<std::size_t>(-1) : links_[pos].depth;
}

std::vector<PeerId> DisseminationTree::relay_nodes(
    const FlatSet<PeerId>& subscribers) const {
  std::vector<PeerId> relays;
  for (std::size_t i = 1; i < order_.size(); ++i) {
    if (!subscribers.contains(order_[i])) relays.push_back(order_[i]);
  }
  return relays;
}

}  // namespace sel::overlay
