#include "verif/term.h"

namespace monatt::verif
{

namespace
{

const char *
kindTag(TermKind k)
{
    switch (k) {
      case TermKind::Name:
        return "n";
      case TermKind::Pub:
        return "pub";
      case TermKind::Pair:
        return "pair";
      case TermKind::SEnc:
        return "senc";
      case TermKind::AEnc:
        return "aenc";
      case TermKind::Sign:
        return "sign";
      case TermKind::Hash:
        return "h";
    }
    return "?";
}

} // namespace

Term::Term(TermKind kind, std::string atom, std::vector<TermPtr> children)
    : kind_(kind), atom_(std::move(atom)), children_(std::move(children))
{
    repr_ = kindTag(kind_);
    repr_ += "(";
    if (kind_ == TermKind::Name) {
        repr_ += atom_;
    } else {
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (i)
                repr_ += ",";
            repr_ += children_[i]->repr();
        }
    }
    repr_ += ")";
}

TermPtr
Term::make(TermKind kind, std::string atom, std::vector<TermPtr> children)
{
    return TermPtr(new Term(kind, std::move(atom), std::move(children)));
}

TermPtr
Term::name(const std::string &n)
{
    return make(TermKind::Name, n, {});
}

TermPtr
Term::pub(const TermPtr &n)
{
    return make(TermKind::Pub, {}, {n});
}

TermPtr
Term::pair(const TermPtr &a, const TermPtr &b)
{
    return make(TermKind::Pair, {}, {a, b});
}

TermPtr
Term::tuple(const std::vector<TermPtr> &parts)
{
    if (parts.empty())
        return name("unit");
    TermPtr out = parts.back();
    for (std::size_t i = parts.size() - 1; i-- > 0;)
        out = pair(parts[i], out);
    return out;
}

TermPtr
Term::senc(const TermPtr &key, const TermPtr &body)
{
    return make(TermKind::SEnc, {}, {key, body});
}

TermPtr
Term::aenc(const TermPtr &pubkey, const TermPtr &body)
{
    return make(TermKind::AEnc, {}, {pubkey, body});
}

TermPtr
Term::sign(const TermPtr &privkey, const TermPtr &body)
{
    return make(TermKind::Sign, {}, {privkey, body});
}

TermPtr
Term::hash(const TermPtr &body)
{
    return make(TermKind::Hash, {}, {body});
}

} // namespace monatt::verif
