/**
 * @file
 * Symbolic term algebra for protocol verification.
 *
 * §7.2.2 verifies the Figure-3 protocol with ProVerif. This module is
 * the corresponding substrate here: protocol messages are symbolic
 * terms over a standard Dolev-Yao signature — atomic names, pairing,
 * symmetric/asymmetric encryption, signatures and hashing — with
 * perfect-cryptography semantics (a ciphertext reveals nothing
 * without the key; a signature cannot be produced without the signing
 * key; hashes are one way).
 *
 * Terms are immutable, hash-consed values: structural equality is
 * pointer-independent and cheap, which the deduction engine's
 * fixpoint relies on.
 */

#ifndef MONATT_VERIF_TERM_H
#define MONATT_VERIF_TERM_H

#include <memory>
#include <string>
#include <vector>

namespace monatt::verif
{

/** Term constructors. */
enum class TermKind
{
    Name,  //!< Atomic name (key, nonce, payload).
    Pub,   //!< Public half of the key named by child 0.
    Pair,  //!< (child 0, child 1).
    SEnc,  //!< Symmetric encryption: key child 0, body child 1.
    AEnc,  //!< Asymmetric encryption: pubkey child 0, body child 1.
    Sign,  //!< Signature: private key child 0, body child 1.
    Hash,  //!< One-way hash of child 0.
};

class Term;

/** Shared immutable term handle. */
using TermPtr = std::shared_ptr<const Term>;

/** A symbolic term. */
class Term
{
  public:
    TermKind kind() const { return kind_; }

    /** Atom text (Name only). */
    const std::string &atom() const { return atom_; }

    /** Sub-terms. */
    const std::vector<TermPtr> &children() const { return children_; }

    /** Canonical string form: equal exactly when the terms are
     * structurally equal (used for hashing and debugging). */
    const std::string &repr() const { return repr_; }

    // --- Factories -----------------------------------------------------

    /** Atomic name. */
    static TermPtr name(const std::string &n);

    /** Public key of the key pair named `n`. */
    static TermPtr pub(const TermPtr &n);

    /** Pair. */
    static TermPtr pair(const TermPtr &a, const TermPtr &b);

    /** Right-nested tuple of >= 1 terms. */
    static TermPtr tuple(const std::vector<TermPtr> &parts);

    /** Symmetric encryption. */
    static TermPtr senc(const TermPtr &key, const TermPtr &body);

    /** Asymmetric encryption under a public key. */
    static TermPtr aenc(const TermPtr &pubkey, const TermPtr &body);

    /** Signature under a private key. */
    static TermPtr sign(const TermPtr &privkey, const TermPtr &body);

    /** Hash. */
    static TermPtr hash(const TermPtr &body);

  private:
    Term(TermKind kind, std::string atom, std::vector<TermPtr> children);

    static TermPtr make(TermKind kind, std::string atom,
                        std::vector<TermPtr> children);

    TermKind kind_;
    std::string atom_;
    std::vector<TermPtr> children_;
    std::string repr_;
};

/** Ordering/equality on TermPtr by canonical form (for std::set). */
struct TermLess
{
    bool
    operator()(const TermPtr &a, const TermPtr &b) const
    {
        return a->repr() < b->repr();
    }
};

} // namespace monatt::verif

#endif // MONATT_VERIF_TERM_H
